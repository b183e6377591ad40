package parallel

import (
	"fmt"
	"time"

	"repro/internal/schedule"
)

// This file is the pipelined execution path of ModeSharedPipelined: the
// same program, the same arenas, the same MS/MD streams as ModeShared —
// but the memory↔shared staging overlaps the Team's compute regions
// under the phase plan of schedule.PlanPipeline.
//
// The whole program is recorded first (per-region core streams, probes
// fed in the serial order, so a probe cannot tell the backends apart).
// Execution then interleaves the driving goroutine with the team: for
// each region r the driver runs the gap's Barrier ops (the staging that
// must stay on the critical path — this is the run's StageWait), hands
// the region to the workers with Team.Launch, and becomes the stager
// for the duration of the region: it retires the gap's trailing
// write-backs (Retire) and runs the region's Prefetch list — stages
// for gaps up to the plan's lookahead Depth ahead — into spare shared
// slots while the workers compute, then joins the team. After the last
// region the plan's Tail drains the shared level.
//
// The hand-off protocol is the region epoch itself: every reordered
// operation runs strictly between one Launch and its join, and the plan
// proved at validation time that those operations address only lines
// the running region never touches. Staging a separate goroutine
// instead would add a channel round-trip per region and — on hosts with
// few hardware threads — starve the stager exactly when the workers are
// busiest, piling its work back onto the critical path; the driver is
// otherwise idle inside the join, so it is the natural stager. Shared
// residency stays deterministic because the driver executes arena
// operations in one fixed order decided entirely at plan time. Worker
// lookups of shared slots and concurrent driver index updates are
// serialised by the SharedArena's internal lock; the tile data itself
// is never contended, because every concurrent pairing addresses
// disjoint lines.

// recordPipelined replays the program into per-region core streams,
// feeding the probe exactly as the serial path does. When no probe
// watches, the recording is cached on the executor (keyed by the
// validated program) so benchmark loops replay without re-emitting.
func (ex *Executor) recordPipelined(prog *schedule.Program) ([][][]execOp, error) {
	if ex.recorded != nil && ex.probe == nil {
		return ex.recorded, nil
	}
	rec := &pipeRecorder{ex: ex}
	if err := prog.Emit(rec); err != nil {
		return nil, err
	}
	if len(rec.regions) != len(ex.plan.Regions) {
		// The plan replayed the same immutable program; a mismatch means
		// the program's Body is not deterministic across replays.
		return nil, fmt.Errorf("parallel: program %q emitted %d parallel regions, its pipeline plan saw %d — the schedule body must be deterministic",
			prog.Algorithm, len(rec.regions), len(ex.plan.Regions))
	}
	if ex.probe == nil {
		ex.recorded = rec.regions
	}
	return rec.regions, nil
}

// pipeRecorder captures the program for pipelined execution. Shared
// staging operations are not recorded here — the phase plan carries
// them — but the probe sees them in program order, exactly as on every
// other backend.
type pipeRecorder struct {
	ex      *Executor
	regions [][][]execOp
}

var _ schedule.Backend = (*pipeRecorder)(nil)

func (pr *pipeRecorder) StageShared(l schedule.Line) {
	if p := pr.ex.probe; p != nil && p.SharedAccess != nil {
		p.SharedAccess(l)
	}
}

// UnstageShared is invisible to probes, as everywhere.
func (pr *pipeRecorder) UnstageShared(schedule.Line) {}

func (pr *pipeRecorder) Parallel(body func(core int, ops schedule.CoreSink)) {
	cores := pr.ex.team.Size()
	ops := make([][]execOp, cores)
	work := false
	for c := 0; c < cores; c++ {
		body(c, pr.ex.sinkFor(c, &ops[c]))
		work = work || len(ops[c]) > 0
	}
	if !work {
		// Matches the serial executor (and the plan's collector): a
		// region with no recorded operations runs no barrier.
		return
	}
	pr.regions = append(pr.regions, ops)
}

// runPipelined executes a staged program in ModeSharedPipelined. The
// executor's validation has already run: the plan is cached, arenas and
// the shared arena exist.
func (ex *Executor) runPipelined(prog *schedule.Program) error {
	if ex.err != nil {
		// Errors are sticky, exactly as on the serial path (where every
		// recorded operation becomes a no-op after the first failure).
		return ex.err
	}
	regions, err := ex.recordPipelined(prog)
	if err != nil {
		return err
	}
	plan := ex.plan
	doOp := func(op schedule.PipelinedOp) error {
		if op.Unstage {
			return ex.unstageShared(op.Line)
		}
		return ex.stageShared(op.Line)
	}
	for r := range regions {
		reg := &plan.Regions[r]
		// The region boundary is a cancellation point, exactly as the
		// serial path's Parallel barrier is; the stager's individual
		// transfers poll the context again inside stageShared.
		ex.region = r
		if err := ex.ctxErr(); err != nil {
			ex.fail(err)
			return ex.err
		}
		start := time.Now()
		for _, op := range reg.Barrier {
			if err := doOp(op); err != nil {
				ex.fail(err)
				return ex.err
			}
		}
		ex.stageWait += time.Since(start)

		// Each worker stamps its finish time so the window can be split
		// honestly below: the stamps are per-core slots, ordered against
		// the driver's read by the join. A stamp older than the launch is
		// a stale one from an earlier region and reads as "finished at
		// launch".
		start = time.Now()
		wait := ex.launch(r, regions[r])
		// The driver is the stager while the workers compute: retire the
		// current gap's trailing write-backs, then prefetch the next
		// region's stages into spare slots. A staging error must not
		// short-circuit the join — the workers still hold the region.
		var stageErr error
		for _, l := range reg.Retire {
			if stageErr = ex.unstageShared(l); stageErr != nil {
				break
			}
		}
		if stageErr == nil {
			for _, l := range reg.Prefetch {
				if stageErr = ex.stageShared(l); stageErr != nil {
					break
				}
			}
		}
		err := wait()
		// Split the window at the last worker's finish: everything up to
		// it is compute, anything after is overlapped staging that stuck
		// out past the region — staging-bound regions must show up as
		// stage wait, not inflate the overlap efficiency.
		window := time.Since(start)
		workerSpan := window
		lastFinish := start
		for _, t := range ex.finished {
			if t.After(lastFinish) {
				lastFinish = t
			}
		}
		if span := lastFinish.Sub(start); span > 0 && span < window {
			workerSpan = span
		}
		ex.computeTime += workerSpan
		ex.stageWait += window - workerSpan
		ex.fail(err)
		ex.fail(stageErr)
		if ex.err != nil {
			return ex.err
		}
	}
	// Tail ops belong to no region; they report as region len(regions).
	ex.region = len(regions)
	start := time.Now()
	for _, op := range plan.Tail {
		if err := doOp(op); err != nil {
			ex.fail(err)
			break
		}
	}
	ex.stageWait += time.Since(start)
	return ex.err
}
