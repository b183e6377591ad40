package parallel

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// Mode selects how the executor realises the schedule's staging
// operations.
type Mode uint8

const (
	// ModePacked realises the distributed level: Stage packs a block from
	// the operand matrices into the core's staging arena, Compute runs
	// the contiguous micro-kernel on arena-resident operands, and Unstage
	// writes dirty C blocks back to the matrices. Shared staging stays a
	// probe-only hint.
	ModePacked Mode = iota
	// ModeView is the strided baseline: staging operations carry no data
	// movement (only the probe observes them) and the kernel reads q×q
	// tiles as strided views into the full matrices. It exists so the
	// benchmarks can measure what physical staging buys.
	ModeView
	// ModeShared realises both cache levels: StageShared packs a block
	// from the operand matrices into the Team-wide shared arena (CS
	// slots), per-core Stage refills each core's arena from the shared
	// arena (an intra-chip copy), dirty core tiles merge upward into the
	// shared copy on Unstage, and UnstageShared writes dirty shared
	// tiles back to memory — so the memory↔shared (MS) and shared↔core
	// (MD) streams are physically distinct and separately counted.
	ModeShared
	// ModeSharedPipelined is ModeShared with the memory↔shared stream
	// taken off the critical path: while the Team's cores compute a
	// region, the driving goroutine acts as the stager — it prefetches
	// the next region's StageShared lines into spare shared slots and
	// retires the previous gap's write-backs concurrently with the
	// workers, under the statically verified phase plan of
	// schedule.PlanPipeline. The executed operation stream — and with it
	// every MS/MD block and byte count — is bit-identical to ModeShared;
	// only the timing overlaps.
	ModeSharedPipelined
)

// String names the mode as it appears in benchmark records.
func (m Mode) String() string {
	switch m {
	case ModePacked:
		return "packed"
	case ModeView:
		return "view"
	case ModeShared:
		return "shared"
	case ModeSharedPipelined:
		return "shared-pipelined"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// SharedLevel reports whether the mode materialises the shared cache
// level (a Team-wide arena between memory and the core arenas).
func (m Mode) SharedLevel() bool { return m == ModeShared || m == ModeSharedPipelined }

// ParseMode resolves a benchmark-record mode name to its Mode.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModePacked, ModeView, ModeShared, ModeSharedPipelined} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("parallel: unknown executor mode %q (want packed, view, shared or shared-pipelined)", s)
}

// LevelTraffic counts the physical transfers the executor performed
// across one boundary of the memory hierarchy during a Run: stages move
// blocks downward (towards the cores), write-backs move dirty blocks
// upward. Blocks count transfer operations — the unit of the
// simulator's MS/MD miss counts — while bytes count the float64 values
// actually copied, so ragged edge tiles weigh exactly what they moved.
type LevelTraffic struct {
	StageBlocks     uint64
	StageBytes      uint64
	WriteBackBlocks uint64
	WriteBackBytes  uint64
}

// Bytes returns the total bytes moved across the boundary.
func (t LevelTraffic) Bytes() uint64 { return t.StageBytes + t.WriteBackBytes }

func (t *LevelTraffic) stage(values int) {
	t.StageBlocks++
	t.StageBytes += 8 * uint64(values)
}

func (t *LevelTraffic) writeBack(values int) {
	t.WriteBackBlocks++
	t.WriteBackBytes += 8 * uint64(values)
}

func (t *LevelTraffic) add(o LevelTraffic) {
	t.StageBlocks += o.StageBlocks
	t.StageBytes += o.StageBytes
	t.WriteBackBlocks += o.WriteBackBlocks
	t.WriteBackBytes += o.WriteBackBytes
}

// Traffic is the per-level physical data movement of one Run, the
// executed counterpart of the simulator's MS/MD miss counts. MS is the
// memory↔shared-arena stream and MD the shared↔core stream; for a
// well-disciplined schedule in ModeShared, MS.StageBlocks equals the
// IDEAL simulator's MS and MD.StageBlocks the sum over cores of its
// MD(c). In ModePacked no shared arena exists: core arenas fill
// straight from memory, that stream is reported as MD, and MS stays
// zero. ModeView moves no data at all.
//
// IC is the inter-chip stream of a multi-chip run: the subset of MD
// whose block was homed on a foreign chip's shared arena, so the
// refill (stage) or dirty merge (write-back) crossed the interconnect.
// It is always zero on a single-chip topology, and IC blocks are
// counted in addition to — never instead of — their MD blocks, so MS
// and MD are invariant across chip counts for the same program.
type Traffic struct {
	MS LevelTraffic
	MD LevelTraffic
	IC LevelTraffic
}

// Executor is the real-execution backend of the schedule IR: it maps
// the same operation stream the cache simulator replays onto a Team of
// worker goroutines computing on float64 blocks.
//
// Each parallel region of the schedule is recorded first — one
// operation list per core, with any attached probe fed in each core's
// program order, exactly matching the simulator probe's per-core
// streams — and then executed by the Team. In ModePacked every core
// owns an Arena sized from the declared machine's distributed-cache
// capacity; Stage/Unstage move blocks between the operand matrices and
// that arena, persisting across regions (a block staged in one region
// is still arena-resident in the next, as in the simulated hierarchy).
// ModeShared adds the Team-wide SharedArena between memory and the
// core arenas; shared staging then happens on the driving goroutine,
// strictly between regions, which the Team barrier orders against all
// worker accesses. In ModeView staging is probe-only, as it was before
// packed storage existed.
type Executor struct {
	team         *Team
	operands     *matrix.Operands
	probe        *schedule.Probe
	mode         Mode
	arenaBlocks  int
	sharedBlocks int
	arenas       []*Arena       // allocated by Run for programs that stage
	shared       []*SharedArena // one per chip; shared-level modes only, allocated with the arenas
	staging      bool           // current program stages (set per Run)
	ops          [][]execOp
	sinks        []execSink // one recording sink per core, reused by every region
	err          error

	// foreign holds the lines a recording met outside the operand
	// binding; op -1-k names foreign[k] (see tileID). The list only
	// grows on the recording goroutine, before the region that could
	// report the line runs.
	foreign []schedule.Line

	// The region the Team is replaying: replayFn is replayRegion bound
	// once, so launching a region allocates nothing. finished[c] is
	// core c's finish stamp (ordered against the driver by the join).
	replayFn  func(core int) error
	curRegion int
	curOps    [][]execOp
	finished  []time.Time

	// Replay provenance: ctx is the active RunContext's context (nil
	// outside a run); algorithm the running program's name; region counts
	// the executed parallel regions of the current run (-1 before the
	// first); opIdx[c] is core c's cumulative op index across the run and
	// drvIdx the driver's, the coordinates RunError and fault plans speak.
	ctx       context.Context
	algorithm string
	region    int
	opIdx     []int
	drvIdx    int

	// inject is the optional fault hook consulted at every replayed
	// operation (SetFaultInjector); integrity arms the per-line checksum
	// tripwire (SetIntegrityChecks).
	inject    faultinject.Injector
	integrity bool

	// Chip topology of the current Run, derived from the program's
	// declared Resources and its Home placement (single chip, everything
	// homed on chip 0, when undeclared).
	chips  int
	chipOf []int                   // core → chip (blocked partition)
	homeOf func(schedule.Line) int // line → home chip; nil on a single chip

	ms  LevelTraffic     // memory↔shared stream, stager/driving goroutine only
	md  []LevelTraffic   // shared↔core (or memory↔core) stream, one per worker
	icw [][]LevelTraffic // [core][home chip] inter-chip share of the MD stream

	// stageWait and computeTime split the driving goroutine's critical
	// path per Run: time spent moving blocks across the memory↔shared
	// boundary (or, pipelined, blocked waiting for the stager) versus
	// time inside parallel regions. Their ratio is the overlap story the
	// benchmark records report.
	stageWait   time.Duration
	computeTime time.Duration

	// validated caches the last successfully validated program (by
	// pointer; a Program is immutable once built), so repeated Runs of
	// the same program — the benchmark loop — measure it only once. The
	// pipelined mode caches its phase plan, and (when no probe watches)
	// its recorded regions, alongside.
	validated        *schedule.Program
	validatedStaging bool
	plan             *schedule.PipelinePlan
	recorded         [][][]execOp

	// kernels selects the register-blocking shape the kernel dispatch
	// uses; its zero value is the historical 4×4 family. lookahead is
	// the pipeline planning depth of ModeSharedPipelined (0 means the
	// default depth 1). Both are tunables — see SetTuning and cmd/tune.
	kernels   matrix.KernelConfig
	lookahead int

	// strictVerify runs the static schedule verifier over every program
	// before its first replay and refuses programs with findings — the
	// belt-and-suspenders mode behind SetStrictVerify (default off; the
	// registered emitters are verified statically in CI instead).
	// verified caches the last program that passed, by pointer, like
	// validated above.
	strictVerify bool
	verified     *schedule.Program

	// optimize (a tunable, see Tuning.Optimize) rewrites every staged
	// program through schedule.Optimize before validation and replay.
	// The rewritten program and its ledger are cached by source pointer
	// so benchmark loops pay the pass once; SetTuning invalidates.
	optimize bool
	optSrc   *schedule.Program
	optProg  *schedule.Program
	optRep   schedule.OptimizeReport
}

// Executor is the real backend of the schedule IR.
var _ schedule.Backend = (*Executor)(nil)

// execOp is one recorded per-core operation: a staging transfer or a
// typed kernel application, 16 bytes. line is the staging target or the
// kernel's destination; srcs carries the kernel's read operands
// (kernel.Arity() of them — at most two across the whole op set). All
// three are dense tile ids of the operand binding, resolved once at
// recording (see Executor.tileID); the coordinate is decoded back only
// for errors, fault points and the strided ModeView path.
type execOp struct {
	kind   execOpKind
	kernel schedule.Kernel
	line   matrix.TileID
	srcs   [2]matrix.TileID
}

type execOpKind uint8

const (
	xApply execOpKind = iota
	xStage
	xUnstage
)

// NewExecutor binds a backend to a team and a product triple. probe may
// be nil. coreBlocks is the per-core arena capacity in tiles of Q×Q
// values, Q the triple's tile size — pass the declared machine's CD, as
// Execute does. sharedBlocks is the shared arena's capacity (the
// machine's CS), used only by ModeShared; ModeView ignores both. Arenas
// are allocated by Run, and only for programs that actually stage, so
// demand-driven schedules pay nothing for the capability.
func NewExecutor(team *Team, t *matrix.Triple, probe *schedule.Probe, mode Mode, coreBlocks, sharedBlocks int) (*Executor, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	ops, err := t.Operands()
	if err != nil {
		return nil, err
	}
	return NewExecutorOperands(team, ops, probe, mode, coreBlocks, sharedBlocks)
}

// NewExecutorOperands binds a backend to an arbitrary operand binding —
// the general form behind NewExecutor, for schedules that are not a
// product of three matrices (blocked LU binds the single matrix it
// factors). The schedule's lines must resolve within the binding; an
// unbound operand fails at execution, exactly as an out-of-discipline
// access does.
func NewExecutorOperands(team *Team, operands *matrix.Operands, probe *schedule.Probe, mode Mode, coreBlocks, sharedBlocks int) (*Executor, error) {
	ex := &Executor{
		team:         team,
		operands:     operands,
		probe:        probe,
		mode:         mode,
		arenaBlocks:  coreBlocks,
		sharedBlocks: sharedBlocks,
		ops:          make([][]execOp, team.Size()),
		sinks:        make([]execSink, team.Size()),
		finished:     make([]time.Time, team.Size()),
		md:           make([]LevelTraffic, team.Size()),
	}
	for c := range ex.sinks {
		ex.sinks[c] = execSink{ex: ex, core: c}
	}
	ex.replayFn = ex.replayRegion
	switch mode {
	case ModePacked, ModeShared, ModeSharedPipelined:
		if coreBlocks <= 0 {
			return nil, fmt.Errorf("parallel: %v executor needs a positive core arena capacity, got %d blocks", mode, coreBlocks)
		}
		if mode.SharedLevel() && sharedBlocks <= 0 {
			return nil, fmt.Errorf("parallel: shared executor needs a positive shared arena capacity, got %d blocks", sharedBlocks)
		}
	case ModeView:
	default:
		return nil, fmt.Errorf("parallel: unknown executor mode %v", mode)
	}
	return ex, nil
}

// Err returns the first execution error, if any.
//
// The executor's error state machine has three states:
//
//	clean ──(replay failure)──▶ quarantined ──(Reset)──▶ clean
//
// Errors are sticky: the first failure inside a replay — a kernel
// error, a staging-discipline violation, a worker panic, an injected
// fault, a cancelled context — quarantines the executor. While
// quarantined, every remaining operation of the failing run is a no-op
// (the workers unwind without deadlock), Err returns the failure (a
// *RunError with full provenance), and any further Run or RunContext
// fails fast without executing anything. Reset returns the executor to
// clean (and with it Err to nil); a successful Run after Reset leaves
// no trace of the previous failure. Pre-flight rejections — a
// core-count mismatch, a working set that overflows the declared
// resources — are returned without entering quarantine: nothing
// executed, so the executor stays clean.
func (ex *Executor) Err() error { return ex.err }

func (ex *Executor) fail(err error) {
	if ex.err == nil && err != nil {
		ex.err = err
	}
}

// Traffic returns the physical data movement of the most recent Run,
// per hierarchy level. The shared-level stream is counted on the
// driving goroutine and the per-core streams are summed after the
// workers finished, so the totals are exact, not sampled.
func (ex *Executor) Traffic() Traffic {
	t := Traffic{MS: ex.ms}
	for i := range ex.md {
		t.MD.add(ex.md[i])
	}
	for c := range ex.icw {
		for h := range ex.icw[c] {
			t.IC.add(ex.icw[c][h])
		}
	}
	return t
}

// CoreTraffic returns core c's share of the most recent Run's MD
// stream (for load-balance analysis; the simulator's per-core MD(c)
// counts correspond to StageBlocks).
func (ex *Executor) CoreTraffic(c int) LevelTraffic { return ex.md[c] }

// Chips returns the chip count of the most recently Run program's
// topology (1 until a program has run).
func (ex *Executor) Chips() int {
	if ex.chips < 1 {
		return 1
	}
	return ex.chips
}

// InterChipPairs returns the most recent Run's inter-chip traffic as a
// [home][user] matrix: entry (h, u) counts the blocks that moved
// between chip h's shared arena and the core arenas of chip u — stages
// downward (h→u), write-backs upward (u→h). The diagonal is zero by
// construction.
func (ex *Executor) InterChipPairs() [][]LevelTraffic {
	chips := ex.Chips()
	pairs := make([][]LevelTraffic, chips)
	for h := range pairs {
		pairs[h] = make([]LevelTraffic, chips)
	}
	for c := range ex.icw {
		user := 0
		if c < len(ex.chipOf) {
			user = ex.chipOf[c]
		}
		for h := range ex.icw[c] {
			pairs[h][user].add(ex.icw[c][h])
		}
	}
	return pairs
}

// StageWait returns the time the most recent Run's driving goroutine
// spent on memory↔shared staging that could not be hidden behind
// compute: in ModeShared the wall-time of all between-region staging,
// in ModeSharedPipelined the barrier-phase ops plus any overlapped
// staging that outlasted the region it ran under (hoisted and retired
// ops fully covered by worker compute cost nothing here). The traffic
// moved is identical in both modes; this is the critical-path share of
// it.
func (ex *Executor) StageWait() time.Duration { return ex.stageWait }

// ComputeTime returns the wall-time the most recent Run spent inside
// parallel regions (team barriers included).
func (ex *Executor) ComputeTime() time.Duration { return ex.computeTime }

// Plan returns the pipeline phase plan of the most recently validated
// program, or nil outside ModeSharedPipelined — the overlap the region
// lookahead found, for reporting.
func (ex *Executor) Plan() *schedule.PipelinePlan { return ex.plan }

// OptimizeReport returns the optimizer's ledger for the last program
// Run rewrote (zero when the optimizer tunable is off, the mode is
// ModeView, or no staged program has run yet). The report's counts are
// in blocks; the executed byte difference shows up directly in
// Traffic().MS / MD.
func (ex *Executor) OptimizeReport() schedule.OptimizeReport { return ex.optRep }

// optimizedFor runs p through schedule.Optimize, caching the rewrite by
// source pointer so the benchmark loop's repeated Runs pay the pass
// once. A program the pass skips (demand-driven reached here cannot
// happen, but malformed or capacity-tight streams can) comes back as
// itself — the optimizer's contract — and is cached the same way.
func (ex *Executor) optimizedFor(p *schedule.Program) (*schedule.Program, error) {
	if ex.optSrc == p && ex.optProg != nil {
		return ex.optProg, nil
	}
	opt, rep, err := schedule.Optimize(p, schedule.OptimizeOptions{})
	if err != nil {
		return nil, fmt.Errorf("parallel: program %q: optimizer: %w", p.Algorithm, err)
	}
	ex.optSrc = p
	ex.optProg = opt
	ex.optRep = rep
	return opt, nil
}

// StageShared loads l into the shared level. The probe observes it in
// every mode; the shared-level modes additionally pack the block into
// the shared arena (one physical MS transfer). Other modes have no
// shared level between the arenas and memory, so the hint carries no
// data. (In ModeSharedPipelined staged programs are recorded and
// replayed through the stager instead of emitting straight into the
// executor, so this serial path only ever runs their probe feed.)
func (ex *Executor) StageShared(l schedule.Line) {
	if ex.err != nil {
		return
	}
	if ex.probe != nil && ex.probe.SharedAccess != nil {
		ex.probe.SharedAccess(l)
	}
	if !ex.mode.SharedLevel() || !ex.staging {
		return
	}
	start := time.Now()
	if err := ex.stageShared(l); err != nil {
		ex.fail(err)
	}
	ex.stageWait += time.Since(start)
}

// home resolves the home chip of tile id under the current Run's
// placement. Single-chip runs never decode the id.
func (ex *Executor) home(id matrix.TileID) int {
	if ex.homeOf == nil {
		return 0
	}
	return ex.homeOf(ex.line(id))
}

// tileID resolves l to its dense id in the operand binding, at
// recording time. A line outside the binding gets a negative id naming
// it in ex.foreign, so the op that touches it still fails at replay —
// the same op the coordinate-keyed index failed at — with that line in
// its error.
func (ex *Executor) tileID(l schedule.Line) matrix.TileID {
	if id, err := ex.operands.TileID(l); err == nil {
		return id
	}
	for k, f := range ex.foreign {
		if f == l {
			return matrix.TileID(-1 - k)
		}
	}
	ex.foreign = append(ex.foreign, l)
	return matrix.TileID(-len(ex.foreign))
}

// line decodes a recorded id back to its coordinate.
func (ex *Executor) line(id matrix.TileID) schedule.Line {
	if id < 0 {
		return ex.foreign[-1-id]
	}
	return ex.operands.Coord(id)
}

// foreignErr is the replay error of an op on a line outside the binding
// (a negative id): the binding's own range or unbound-operand error.
func (ex *Executor) foreignErr(id matrix.TileID) error {
	_, err := ex.operands.TileID(ex.line(id))
	return err
}

// stageShared performs the physical memory→shared transfer of l into
// its home chip's arena and counts it on the MS stream. It runs on the
// driving goroutine in ModeShared and on the stager goroutine in
// ModeSharedPipelined. It is a cancellation point (the context is
// polled before the transfer, so staging loops unwind promptly) and an
// injection point; failures — organic, injected, or a panic recovered
// right here — carry the driver op's provenance.
func (ex *Executor) stageShared(l schedule.Line) (err error) {
	if err := ex.ctxErr(); err != nil {
		return err
	}
	ref := schedule.OpRef{Region: ex.region, Core: schedule.DriverCore, Index: ex.drvIdx}
	ex.drvIdx++
	defer func() {
		if r := recover(); r != nil {
			err = &RunError{
				Algorithm: ex.algorithm, Op: ref,
				Site: faultinject.StageShared, Line: l, HasOp: true,
				Panicked: true, PanicValue: r, Stack: debug.Stack(),
			}
		}
	}()
	act, err := ex.injectAt(faultinject.Point{Op: ref, Kind: faultinject.StageShared, Line: l})
	if err != nil {
		return ex.driverError(ref, faultinject.StageShared, l, err)
	}
	id, err := ex.operands.TileID(l)
	if err != nil {
		return ex.driverError(ref, faultinject.StageShared, l, err)
	}
	home := ex.home(id)
	values, err := ex.shared[home].Stage(id)
	if err != nil {
		return ex.driverError(ref, faultinject.StageShared, l, err)
	}
	if act.Kind == faultinject.ActCorrupt {
		ex.shared[home].corrupt(id, act.Bit)
	}
	ex.ms.stage(values)
	return nil
}

// UnstageShared releases l from the shared level. In the shared-level
// modes it writes a dirty tile back to memory and frees the slot,
// enforcing inclusion (a block still held by a core arena cannot leave
// the shared level); elsewhere it is the omniscient policy's privilege:
// a no-op, invisible to probes, exactly as in the simulator.
func (ex *Executor) UnstageShared(l schedule.Line) {
	if ex.err != nil || !ex.mode.SharedLevel() || !ex.staging {
		return
	}
	start := time.Now()
	id, err := ex.operands.TileID(l)
	for c, ar := range ex.arenas {
		if err == nil && ar.tile(id) != nil {
			ref := schedule.OpRef{Region: ex.region, Core: schedule.DriverCore, Index: ex.drvIdx}
			ex.fail(ex.driverError(ref, faultinject.UnstageShared, l,
				fmt.Errorf("parallel: unstaging %v from the shared arena while core %d still holds it", l, c)))
			return
		}
	}
	if err := ex.unstageShared(l); err != nil {
		ex.fail(err)
	}
	ex.stageWait += time.Since(start)
}

// unstageShared performs the physical shared→memory release of l,
// counting a dirty write-back on the MS stream. Unlike the serial
// UnstageShared it does not re-check core-arena residency: the serial
// path checks at runtime between regions, while the pipelined stager —
// which may run this concurrently with worker regions — relies on
// schedule.PlanPipeline having proven inclusion statically. Like
// stageShared it is a cancellation and injection point with full
// driver-op provenance.
func (ex *Executor) unstageShared(l schedule.Line) (err error) {
	if err := ex.ctxErr(); err != nil {
		return err
	}
	ref := schedule.OpRef{Region: ex.region, Core: schedule.DriverCore, Index: ex.drvIdx}
	ex.drvIdx++
	defer func() {
		if r := recover(); r != nil {
			err = &RunError{
				Algorithm: ex.algorithm, Op: ref,
				Site: faultinject.UnstageShared, Line: l, HasOp: true,
				Panicked: true, PanicValue: r, Stack: debug.Stack(),
			}
		}
	}()
	if _, err := ex.injectAt(faultinject.Point{Op: ref, Kind: faultinject.UnstageShared, Line: l}); err != nil {
		return ex.driverError(ref, faultinject.UnstageShared, l, err)
	}
	id, err := ex.operands.TileID(l)
	if err != nil {
		return ex.driverError(ref, faultinject.UnstageShared, l, err)
	}
	values, dirty, err := ex.shared[ex.home(id)].Unstage(id)
	if err != nil {
		return ex.driverError(ref, faultinject.UnstageShared, l, err)
	}
	if dirty {
		ex.ms.writeBack(values)
	}
	return nil
}

// execSink records one core's stream of a parallel region into *out,
// feeding the probe every access on the way and resolving every line to
// its tile id. Kernel applications are always recorded; staging
// transfers only in the modes that move data (ModeView replays
// computes on strided views, staying probe-only for staging, exactly as
// before packed storage existed).
type execSink struct {
	ex   *Executor
	core int
	out  *[]execOp
}

func (s *execSink) access(l schedule.Line, write bool) {
	if p := s.ex.probe; p != nil && p.CoreAccess != nil {
		p.CoreAccess(s.core, l, write)
	}
}

// Stage queues the block transfer into this core's arena (staging
// modes) and feeds the probe the access, exactly as the simulator does.
func (s *execSink) Stage(l schedule.Line) {
	s.access(l, false)
	if s.ex.mode != ModeView {
		*s.out = append(*s.out, execOp{kind: xStage, line: s.ex.tileID(l)})
	}
}

// Unstage queues the write-back/release of l. It is invisible to
// probes, exactly as in the simulator.
func (s *execSink) Unstage(l schedule.Line) {
	if s.ex.mode != ModeView {
		*s.out = append(*s.out, execOp{kind: xUnstage, line: s.ex.tileID(l)})
	}
}

// Read records a raw access; it carries no arithmetic.
func (s *execSink) Read(l schedule.Line) { s.access(l, false) }

// Write records a raw access; it carries no arithmetic.
func (s *execSink) Write(l schedule.Line) { s.access(l, true) }

// Apply queues the kernel application for this core and feeds the probe
// the accesses the kernel declares — each source read in order, then the
// destination written — exactly the expansion the simulator records.
func (s *execSink) Apply(k schedule.Kernel, dest schedule.Line, srcs ...schedule.Line) {
	k.Accesses(dest, srcs,
		func(l schedule.Line) { s.access(l, false) },
		func(l schedule.Line) { s.access(l, true) })
	op := execOp{kind: xApply, kernel: k, line: s.ex.tileID(dest)}
	for i, l := range srcs {
		op.srcs[i] = s.ex.tileID(l)
	}
	*s.out = append(*s.out, op)
}

// Compute queues the block FMA C[i,j] += A[i,k]·B[k,j] as its MulAdd
// expansion, preserving the schedule's read-read-write probe order.
func (s *execSink) Compute(i, j, k int) {
	s.Apply(schedule.MulAdd, schedule.LineC(i, j), schedule.LineA(i, k), schedule.LineB(k, j))
}

// sinkFor points core c's recording sink at out — the per-region
// scratch in the serial path, a pipeline recorder's region storage in
// ModeSharedPipelined — and returns it.
func (ex *Executor) sinkFor(c int, out *[]execOp) *execSink {
	s := &ex.sinks[c]
	s.out = out
	return s
}

// Parallel records the per-core streams of one region, then runs them
// concurrently on the team. The schedules guarantee that cores write
// disjoint C blocks within a region — and that arena residency of a C
// block never migrates between cores across regions — so no further
// synchronisation is needed.
func (ex *Executor) Parallel(body func(core int, ops schedule.CoreSink)) {
	if ex.err != nil {
		return
	}
	work := false
	for c := range ex.ops {
		ex.ops[c] = ex.ops[c][:0]
		body(c, ex.sinkFor(c, &ex.ops[c]))
		work = work || len(ex.ops[c]) > 0
	}
	// Regions with no recorded operations (probe-only in this mode)
	// skip the team barrier; the probe has already seen the streams.
	if !work {
		return
	}
	// Region barriers are the serial path's cancellation points: the
	// context is polled once per region, never inside worker replay.
	if err := ex.ctxErr(); err != nil {
		ex.fail(err)
		return
	}
	ex.region++
	start := time.Now()
	ex.fail(ex.launch(ex.region, ex.ops)())
	ex.computeTime += time.Since(start)
}

// launch hands region's recorded core streams to the Team and returns
// the join.
func (ex *Executor) launch(region int, ops [][]execOp) (wait func() error) {
	ex.curRegion, ex.curOps = region, ops
	return ex.team.Launch(ex.replayFn)
}

// replayRegion is core c's body of the launched region: it replays the
// core's stream and stamps its finish time.
func (ex *Executor) replayRegion(c int) error {
	err := ex.replayOps(c, ex.curRegion, ex.curOps[c])
	ex.finished[c] = time.Now()
	return err
}

// siteOf maps a recorded op to its injection-point kind.
func siteOf(op execOp) faultinject.OpKind {
	switch op.kind {
	case xStage:
		return faultinject.Stage
	case xUnstage:
		return faultinject.Unstage
	default:
		return faultinject.Apply
	}
}

// replayOps executes core c's recorded stream of one region. The
// arena applies only when the *current* program stages: a reused
// Executor may hold arenas from an earlier staged Run while replaying a
// demand-driven program, whose computes must take the strided path.
//
// Every op is an injection point and carries provenance: failures come
// back as *RunError with the (region, core, index) coordinate, the op
// site, kernel and line; a panic — a kernel's or an injected one — is
// recovered here with the in-flight op's identity, so the Team's
// recover is only ever a backstop for panics outside op replay.
func (ex *Executor) replayOps(c, region int, ops []execOp) (err error) {
	var ar *Arena
	if ex.staging {
		ar = ex.arenas[c]
	}
	md := &ex.md[c]
	idx := ex.opIdx[c]
	var cur execOp
	active := false
	defer func() {
		ex.opIdx[c] = idx
		if r := recover(); r != nil {
			re := &RunError{
				Algorithm:  ex.algorithm,
				Op:         schedule.OpRef{Region: region, Core: c, Index: idx},
				Panicked:   true,
				PanicValue: r,
				Stack:      debug.Stack(),
			}
			if active {
				re.Site, re.Kernel, re.Line, re.HasOp = siteOf(cur), cur.kernel, ex.line(cur.line), true
			}
			err = re
		}
	}()
	for _, op := range ops {
		cur, active = op, true
		var act faultinject.Action
		if ex.inject != nil {
			var ierr error
			ref := schedule.OpRef{Region: region, Core: c, Index: idx}
			act, ierr = ex.injectAt(faultinject.Point{Op: ref, Kind: siteOf(op), Kernel: op.kernel, Line: ex.line(op.line)})
			if ierr != nil {
				return ex.opError(ref, op, ierr)
			}
		}
		if oerr := ex.replayOne(c, ar, md, op, act); oerr != nil {
			return ex.opError(schedule.OpRef{Region: region, Core: c, Index: idx}, op, oerr)
		}
		idx++
	}
	return nil
}

// replayOne executes a single recorded op on core c. act carries the
// already-resolved injection at this point; the only action left to
// apply here is ActCorrupt, which flips a bit of the freshly staged (or
// freshly written) arena copy after the op completed.
func (ex *Executor) replayOne(c int, ar *Arena, md *LevelTraffic, op execOp, act faultinject.Action) error {
	switch op.kind {
	case xStage, xUnstage:
		if ar == nil {
			// Staging ops reach replay only through Run, which
			// allocates arenas for every program that stages.
			return fmt.Errorf("parallel: staging op %v outside a validated Run", ex.line(op.line))
		}
		if op.line < 0 {
			return ex.foreignErr(op.line)
		}
		if op.kind == xStage {
			if ex.mode.SharedLevel() {
				// The core arena fills from the block's home chip's
				// shared arena, never from the matrices. A foreign home
				// makes the same transfer an inter-chip one: counted on
				// MD as always, plus the interconnect stream.
				home := ex.home(op.line)
				values, err := ex.shared[home].Refill(ar, op.line)
				if err != nil {
					return err
				}
				md.stage(values)
				if home != ex.chipOf[c] {
					ex.icw[c][home].stage(values)
				}
			} else {
				values, err := ar.Stage(op.line)
				if err != nil {
					return err
				}
				md.stage(values)
			}
			if act.Kind == faultinject.ActCorrupt {
				if slot := ar.tile(op.line); slot != nil {
					corruptData(slot.data, act.Bit)
				}
			}
			return nil
		}
		if !ex.mode.SharedLevel() {
			values, dirty, err := ar.Unstage(op.line)
			if err != nil {
				return err
			}
			if dirty {
				md.writeBack(values)
			}
			return nil
		}
		rows, cols, data, dirty, err := ar.release(op.line)
		if err != nil || !dirty {
			return err
		}
		// Dirty tiles merge upward into the home chip's shared copy, as
		// EvictDistributed merges under IDEAL; the shared level owns the
		// eventual write-back to memory. A foreign home sends the merge
		// over the interconnect.
		home := ex.home(op.line)
		if err := ex.shared[home].Absorb(op.line, rows, cols, data); err != nil {
			return err
		}
		if home != ex.chipOf[c] {
			ex.icw[c][home].writeBack(rows * cols)
		}
		md.writeBack(rows * cols)
		return nil
	case xApply:
		if err := ex.apply(ar, op); err != nil {
			return err
		}
		if act.Kind == faultinject.ActCorrupt && ar != nil {
			if slot := ar.tile(op.line); slot != nil {
				corruptData(slot.data, act.Bit)
			}
		}
		return nil
	}
	return nil
}

// block resolves a recorded id to its strided tile view in the operand
// matrices — the ModeView path.
func (ex *Executor) block(id matrix.TileID) (*matrix.Dense, error) {
	return ex.operands.Block(ex.line(id))
}

// apply dispatches one typed kernel application. With an arena present
// (staged schedules) every operand must be arena-resident — mirroring
// the IDEAL cache, where referencing a non-resident line is an error —
// and the kernel runs on the contiguous packed copies. Demand-driven
// schedules never stage, so Run allocates them no arena (ar == nil) and
// the kernel reads the tile views directly; both paths run the very
// same arithmetic, so packed-vs-view ratios measure data layout, never
// loop shape, and the two results are bitwise identical.
func (ex *Executor) apply(ar *Arena, op execOp) error {
	arity := op.kernel.Arity()
	var dest *matrix.Dense
	var srcs [2]*matrix.Dense
	if ar != nil {
		sd := ar.tile(op.line)
		if sd == nil {
			if op.line < 0 {
				return ex.foreignErr(op.line)
			}
			return fmt.Errorf("parallel: %v on non-resident destination %v", op.kernel, ex.line(op.line))
		}
		dest = sd.hdr
		sd.dirty = true
		for i := 0; i < arity; i++ {
			ss := ar.tile(op.srcs[i])
			if ss == nil {
				if op.srcs[i] < 0 {
					return ex.foreignErr(op.srcs[i])
				}
				return fmt.Errorf("parallel: %v of %v with non-resident source %v", op.kernel, ex.line(op.line), ex.line(op.srcs[i]))
			}
			srcs[i] = ss.hdr
		}
	} else {
		var err error
		if dest, err = ex.block(op.line); err != nil {
			return err
		}
		for i := 0; i < arity; i++ {
			if srcs[i], err = ex.block(op.srcs[i]); err != nil {
				return err
			}
		}
	}
	switch op.kernel {
	case schedule.MulAdd:
		return ex.kernels.MulAdd(dest, srcs[0], srcs[1])
	case schedule.MulSub:
		return ex.kernels.MulSub(dest, srcs[0], srcs[1])
	case schedule.FactorTile:
		return ex.kernels.FactorTile(dest)
	case schedule.TrsmLowerLeftUnit:
		return ex.kernels.TrsmLowerLeftUnit(srcs[0], dest)
	case schedule.TrsmUpperRight:
		return ex.kernels.TrsmUpperRight(srcs[0], dest)
	default:
		return fmt.Errorf("parallel: no executor dispatch for kernel %v", op.kernel)
	}
}

// Run replays a complete program and reports the first error. In the
// staging modes the program's measured working set is validated against
// the resources it declares before anything executes, and any tiles a
// sloppy schedule left staged are flushed back afterwards (schedules
// are expected to unstage everything themselves; the simulated
// hierarchy has the same end-of-run Flush). The flush drains the levels
// top-down — core arenas merge into the shared arena before the shared
// arena writes to memory — so a stale shared copy can never overwrite a
// fresher core result, and a reused Executor always starts its next Run
// from clean arenas.
//
// ModePacked validates only the per-core level (WorkingSet.FitsCore):
// the arenas are the one cache level it materialises, while the shared
// level stays a probe-only hint (some emitters overclaim CS by a block
// or two on tiny machines, and rejecting execution on a resource that
// is never allocated would regress workloads that run fine). ModeShared
// materialises both levels and therefore validates both (Fits) — there
// a shared overclaim is a real overflow of the CS-sized arena and must
// be rejected up front. The validation replay costs one extra pass over
// the operation stream — measured at ~0.4% of the packed run time for
// n=1024, far below run-to-run noise.
//
// Run is RunContext with a background context; see RunContext for the
// cancellation and failure contract.
func (ex *Executor) Run(prog *schedule.Program) error {
	return ex.RunContext(context.Background(), prog)
}

// RunContext replays a complete program under ctx. Cancellation and
// deadlines are honoured at the run's natural barriers — before each
// parallel region, and before every memory↔shared staging transfer of
// the driving goroutine (serial and pipelined alike) — never inside a
// worker's kernel, so a cancelled run always leaves whole regions
// either fully executed or not started. A cancelled run fails with a
// *RunError unwrapping to ctx.Err() and quarantines the executor like
// any other replay failure; Reset returns it to service.
//
// A quarantined executor (Err() != nil) fails fast here without
// executing anything. Every failure that occurs inside the replay —
// kernel errors, staging-discipline violations, injected faults,
// integrity-check trips, worker or driver panics — is returned as a
// *RunError carrying the failing operation's provenance. Panics
// anywhere in the replay (including the program's own Body emitter) are
// recovered; RunContext never lets one escape.
func (ex *Executor) RunContext(ctx context.Context, prog *schedule.Program) (err error) {
	if ex.err != nil {
		return fmt.Errorf("parallel: executor quarantined by an earlier failure (%v); Reset it before running again", ex.err)
	}
	ex.ctx = ctx
	ex.algorithm = prog.Algorithm
	ex.region = -1
	if len(ex.opIdx) != ex.team.Size() {
		ex.opIdx = make([]int, ex.team.Size())
	}
	for i := range ex.opIdx {
		ex.opIdx[i] = 0
	}
	ex.drvIdx = 0
	defer func() {
		ex.ctx = nil
		if r := recover(); r != nil {
			// Backstop for panics outside op replay (the emitter's Body,
			// validation plumbing): the op-level recovers in replayOps and
			// the staging helpers carry precise provenance and never
			// re-panic, so all that is known here is the region.
			ex.fail(&RunError{
				Algorithm:  ex.algorithm,
				Op:         schedule.OpRef{Region: ex.region, Core: schedule.DriverCore, Index: -1},
				Panicked:   true,
				PanicValue: r,
				Stack:      debug.Stack(),
			})
			err = ex.err
		}
	}()
	return ex.execute(prog)
}

// execute is the body of RunContext: validation, arena setup, replay
// and the end-of-run drains.
func (ex *Executor) execute(prog *schedule.Program) error {
	if prog.Cores != ex.team.Size() {
		return fmt.Errorf("parallel: program %q wants %d cores, team has %d",
			prog.Algorithm, prog.Cores, ex.team.Size())
	}
	// The optimizer rewrite happens before everything else — validation,
	// strict verification, pipeline planning and replay all see the
	// optimized stream, so the plan phases the program that actually
	// runs and the verifier gate covers the rewrite, not just its input.
	if ex.optimize && ex.mode != ModeView && !prog.DemandDriven {
		opt, err := ex.optimizedFor(prog)
		if err != nil {
			return err
		}
		prog = opt
	}
	if err := ex.strictVerifyCheck(prog); err != nil {
		return err
	}
	ex.ms = LevelTraffic{}
	for i := range ex.md {
		ex.md[i] = LevelTraffic{}
	}
	// Chip topology follows the program: the shared-level modes split
	// their arena per declared chip and route every line by its home;
	// the other modes have no shared level, hence a single flat chip.
	ex.chips = 1
	ex.homeOf = nil
	if len(ex.chipOf) != ex.team.Size() {
		ex.chipOf = make([]int, ex.team.Size())
	}
	if ex.mode.SharedLevel() {
		ex.chips = prog.Resources.ChipCount()
		if ex.chips > ex.team.Size() || ex.team.Size()%ex.chips != 0 {
			return fmt.Errorf("parallel: program %q declares %d chips, which cannot split %d cores evenly",
				prog.Algorithm, ex.chips, ex.team.Size())
		}
		if ex.chips > 1 {
			ex.homeOf = prog.HomeOf
		}
		for c := range ex.chipOf {
			ex.chipOf[c] = prog.ChipOfCore(c)
		}
	} else {
		for c := range ex.chipOf {
			ex.chipOf[c] = 0
		}
	}
	if len(ex.icw) != ex.team.Size() || (len(ex.icw) > 0 && len(ex.icw[0]) != ex.chips) {
		ex.icw = make([][]LevelTraffic, ex.team.Size())
		for c := range ex.icw {
			ex.icw[c] = make([]LevelTraffic, ex.chips)
		}
	} else {
		for c := range ex.icw {
			for h := range ex.icw[c] {
				ex.icw[c][h] = LevelTraffic{}
			}
		}
	}
	ex.stageWait = 0
	ex.computeTime = 0
	ex.staging = false
	staged := ex.mode != ModeView && !prog.DemandDriven
	if staged {
		if prog == ex.validated {
			ex.staging = ex.validatedStaging
		} else {
			ws, err := schedule.Measure(prog)
			if err != nil {
				return err
			}
			if ex.mode.SharedLevel() {
				if err := ws.Fits(prog.Resources); err != nil {
					return fmt.Errorf("parallel: program %q: %w", prog.Algorithm, err)
				}
				if ws.SharedPeak > ex.sharedBlocks {
					return fmt.Errorf("parallel: program %q needs %d shared arena blocks, have %d",
						prog.Algorithm, ws.SharedPeak, ex.sharedBlocks)
				}
			} else if err := ws.FitsCore(prog.Resources); err != nil {
				return fmt.Errorf("parallel: program %q: %w", prog.Algorithm, err)
			}
			if ws.CorePeak > ex.arenaBlocks {
				return fmt.Errorf("parallel: program %q needs %d arena blocks per core, have %d",
					prog.Algorithm, ws.CorePeak, ex.arenaBlocks)
			}
			ex.staging = ws.Stages > 0 || (ex.mode.SharedLevel() && ws.SharedStages > 0)
			ex.plan = nil
			ex.recorded = nil
			if ex.staging && ex.mode == ModeSharedPipelined {
				// The region lookahead phases every staging gap and proves
				// the overlapped footprint and the inclusion discipline
				// before the stager is allowed to reorder anything.
				plan, err := schedule.PlanPipelineDepth(prog, ex.sharedBlocks, ex.lookaheadDepth())
				if err != nil {
					return fmt.Errorf("parallel: program %q: %w", prog.Algorithm, err)
				}
				ex.plan = plan
			}
			ex.validated = prog
			ex.validatedStaging = ex.staging
		}
		if ex.staging && ex.arenas == nil {
			ex.arenas = make([]*Arena, ex.team.Size())
			for c := range ex.arenas {
				a, err := NewArena(ex.arenaBlocks, ex.operands)
				if err != nil {
					return err
				}
				ex.arenas[c] = a
			}
		}
		if ex.staging && ex.mode.SharedLevel() && len(ex.shared) != ex.chips {
			// One CS-sized arena per chip. A reused executor whose new
			// program declares a different topology reallocates; the old
			// arenas were drained empty at the end of their last Run.
			shared := make([]*SharedArena, ex.chips)
			for i := range shared {
				sa, err := NewSharedArena(ex.sharedBlocks, ex.operands)
				if err != nil {
					return err
				}
				shared[i] = sa
			}
			ex.shared = shared
			// NUMA first-touch: Go zeroes pages lazily, so the first write
			// decides which node backs them. Have the first worker of each
			// chip touch its chip's arena before any staging, so on a real
			// multi-socket host (workers pinned per chip) every arena's
			// pages land on the socket whose cores refill from it.
			per := ex.team.Size() / ex.chips
			if err := ex.team.Run(func(c int) error {
				if c%per == 0 && c/per < ex.chips {
					ex.shared[c/per].FirstTouch()
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	// Arm (or disarm) the checksum tripwire on every arena the run will
	// touch; arenas persist across Runs, so the flag is re-applied here
	// rather than only at allocation.
	for _, ar := range ex.arenas {
		ar.verify = ex.integrity
	}
	for _, sa := range ex.shared {
		sa.setVerify(ex.integrity)
	}
	if ex.staging && ex.mode == ModeSharedPipelined {
		if err := ex.runPipelined(prog); err != nil {
			return err
		}
	} else if err := prog.Emit(ex); err != nil {
		return err
	}
	if ex.err == nil && ex.mode == ModePacked {
		for c, ar := range ex.arenas {
			_, err := ar.Drain(func(id matrix.TileID, rows, cols int, data []float64) error {
				if err := ex.operands.UnpackTile(id, data); err != nil {
					return err
				}
				ex.md[c].writeBack(rows * cols)
				return nil
			})
			if err != nil {
				ex.fail(err)
				break
			}
		}
	}
	if ex.err == nil && ex.mode.SharedLevel() {
		// Top-down: dirty core tiles merge into the shared copies first,
		// then the shared arena writes to memory — the reverse order
		// would let a stale shared copy overwrite a fresher core result.
		for c, ar := range ex.arenas {
			_, err := ar.Drain(func(id matrix.TileID, rows, cols int, data []float64) error {
				home := ex.home(id)
				if err := ex.shared[home].Absorb(id, rows, cols, data); err != nil {
					return err
				}
				ex.md[c].writeBack(rows * cols)
				if home != ex.chipOf[c] {
					ex.icw[c][home].writeBack(rows * cols)
				}
				return nil
			})
			if err != nil {
				ex.fail(err)
				break
			}
		}
		for _, sa := range ex.shared {
			if ex.err != nil {
				break
			}
			_, err := sa.Drain(func(id matrix.TileID, rows, cols int, data []float64) error {
				if err := ex.operands.UnpackTile(id, data); err != nil {
					return err
				}
				ex.ms.writeBack(rows * cols)
				return nil
			})
			ex.fail(err)
		}
	}
	return ex.err
}
