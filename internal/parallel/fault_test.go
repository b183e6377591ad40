package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// collector is the dry-scan injector: it records every injection point
// the executor consults and injects nothing, so a test can sample a
// real operation coordinate of a program before arming a fault there.
type collector struct {
	mu  sync.Mutex
	pts []faultinject.Point
}

func (c *collector) At(p faultinject.Point) faultinject.Action {
	c.mu.Lock()
	c.pts = append(c.pts, p)
	c.mu.Unlock()
	return faultinject.Action{}
}

// points returns the recorded stream. The cross-goroutine interleaving
// is nondeterministic, but each point's coordinates are not — any
// sampled point names the same operation on every replay.
func (c *collector) points() []faultinject.Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]faultinject.Point(nil), c.pts...)
}

// The fault tests all run the same small-but-multi-region workload.
const (
	faultM, faultN, faultZ = 6, 5, 4
	faultQ                 = 4
	faultSeed              = 11
)

func faultTriple(t *testing.T) *matrix.Triple {
	t.Helper()
	tr, err := matrix.NewTriple(faultM, faultN, faultZ, faultQ, faultSeed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// restoreTriple rewinds tr's operands (a faulted run may have written
// partial results into any of them) to the pristine seed state.
func restoreTriple(t *testing.T, tr, pristine *matrix.Triple) {
	t.Helper()
	for _, pair := range [][2]*matrix.Dense{
		{tr.A.Dense(), pristine.A.Dense()},
		{tr.B.Dense(), pristine.B.Dense()},
		{tr.C.Dense(), pristine.C.Dense()},
	} {
		if err := pair[0].CopyFrom(pair[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// freshResult runs prog once on a brand-new team and executor and
// returns the product — the reference a recovered executor must match
// bitwise.
func freshResult(t *testing.T, prog *schedule.Program, mode Mode, cd, cs int) *matrix.Dense {
	t.Helper()
	tr := faultTriple(t)
	team, err := NewTeam(prog.Cores)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	ex, err := NewExecutor(team, tr, nil, mode, cd, cs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(prog); err != nil {
		t.Fatal(err)
	}
	return tr.C.Dense().Clone()
}

// TestFaultGridRunAfterFault is the recovery pin of the failure model:
// for every algorithm × staging mode × chip count, a run killed by an
// injected fault — a worker panic, a kernel error, a staging error —
// must (1) surface as a *RunError naming the exact sabotaged operation,
// (2) quarantine the executor so the next Run fails fast, and (3) after
// Reset and restored inputs, produce a product bitwise identical to the
// same program on a fresh executor. Nothing from the wreckage — stale
// arena residents, sticky errors, skewed op counters — may leak into
// the recovered run.
func TestFaultGridRunAfterFault(t *testing.T) {
	modes := []Mode{ModePacked, ModeShared, ModeSharedPipelined}
	for _, a := range algo.Extended() {
		for _, mode := range modes {
			for _, chips := range []int{1, 2} {
				if chips > 1 && !mode.SharedLevel() {
					continue
				}
				mach := testMachine(4)
				mach.Chips = chips
				prog, err := a.Schedule(mach, algo.Workload{M: faultM, N: faultN, Z: faultZ})
				if err != nil {
					t.Fatal(err)
				}
				if prog.DemandDriven && chips > 1 {
					continue
				}
				t.Run(fmt.Sprintf("%s/%v/chips%d", a.Name(), mode, chips), func(t *testing.T) {
					faultGridCase(t, prog, mode, mach.CD, mach.CS)
				})
			}
		}
	}
}

func faultGridCase(t *testing.T, prog *schedule.Program, mode Mode, cd, cs int) {
	want := freshResult(t, prog, mode, cd, cs)
	pristine := faultTriple(t)

	tr := faultTriple(t)
	team, err := NewTeam(prog.Cores)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	ex, err := NewExecutor(team, tr, nil, mode, cd, cs)
	if err != nil {
		t.Fatal(err)
	}

	// Dry scan: sample real operation coordinates of this program.
	col := &collector{}
	ex.SetFaultInjector(col)
	if err := ex.Run(prog); err != nil {
		t.Fatalf("dry scan: %v", err)
	}
	if d := tr.C.Dense().MaxAbsDiff(want); d != 0 {
		t.Fatalf("collector run deviates from fresh executor by %g", d)
	}
	var applies, stages []faultinject.Point
	for _, p := range col.points() {
		if p.Kind == faultinject.Apply {
			applies = append(applies, p)
		} else {
			stages = append(stages, p)
		}
	}
	if len(applies) == 0 {
		t.Fatal("dry scan saw no apply points")
	}
	applyPt := applies[len(applies)/2]

	cases := []struct {
		name      string
		pt        faultinject.Point
		act       faultinject.Action
		wantPanic bool
	}{
		{"panic", applyPt, faultinject.Action{Kind: faultinject.ActPanic}, true},
		{"error", applyPt, faultinject.Action{Kind: faultinject.ActError}, false},
	}
	if len(stages) > 0 {
		// Demand-driven programs never stage; everything else also gets a
		// staging-transfer failure (worker refill or driver transfer).
		cases = append(cases, struct {
			name      string
			pt        faultinject.Point
			act       faultinject.Action
			wantPanic bool
		}{"stagerr", stages[len(stages)/2], faultinject.Action{Kind: faultinject.ActError}, false})
	}

	for _, fc := range cases {
		t.Run(fc.name, func(t *testing.T) {
			restoreTriple(t, tr, pristine)
			ex.SetFaultInjector(&faultinject.Plan{Rules: []faultinject.Rule{{
				Core:    fc.pt.Op.Core,
				OpIndex: fc.pt.Op.Index,
				Ops:     faultinject.Mask(fc.pt.Kind),
				Action:  fc.act,
			}}})
			err := ex.Run(prog)
			if err == nil {
				t.Fatalf("fault at %v (%v) did not fire", fc.pt.Op, fc.pt.Kind)
			}
			var re *RunError
			if !errors.As(err, &re) {
				t.Fatalf("fault surfaced without RunError provenance: %v", err)
			}
			if re.Op != fc.pt.Op {
				t.Fatalf("RunError names op %v, fault was armed at %v", re.Op, fc.pt.Op)
			}
			if !re.HasOp || re.Site != fc.pt.Kind || re.Line != fc.pt.Line {
				t.Fatalf("RunError site %v line %v (HasOp=%v), want %v %v", re.Site, re.Line, re.HasOp, fc.pt.Kind, fc.pt.Line)
			}
			if re.Panicked != fc.wantPanic {
				t.Fatalf("RunError Panicked=%v, want %v (%v)", re.Panicked, fc.wantPanic, err)
			}
			if !fc.wantPanic && !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("injected error does not unwrap to ErrInjected: %v", err)
			}

			// The wreck quarantines the executor: the next Run refuses.
			if err := ex.Run(prog); err == nil || !strings.Contains(err.Error(), "quarantined") {
				t.Fatalf("quarantined executor accepted a Run: %v", err)
			}

			// Reset + restored inputs: bitwise identical to a fresh executor.
			ex.Reset()
			if err := ex.Err(); err != nil {
				t.Fatalf("Err() after Reset: %v", err)
			}
			ex.SetFaultInjector(nil)
			restoreTriple(t, tr, pristine)
			if err := ex.Run(prog); err != nil {
				t.Fatalf("clean run after Reset: %v", err)
			}
			if d := tr.C.Dense().MaxAbsDiff(want); d != 0 {
				t.Fatalf("post-fault run deviates from fresh executor by %g", d)
			}
		})
	}
}

// TestIntegrityFaultTripwire pins the checksum tripwire against
// injected single-bit corruption: with checks armed the run dies with
// ErrIntegrity and the provenance of the operation that detected the
// flip; with checks off the same corruption silently poisons the
// product — which is exactly why the tripwire exists.
func TestIntegrityFaultTripwire(t *testing.T) {
	var prog *schedule.Program
	var picked algo.Algorithm
	mach := testMachine(4)
	for _, a := range algo.Extended() {
		p, err := a.Schedule(mach, algo.Workload{M: faultM, N: faultN, Z: faultZ})
		if err != nil {
			t.Fatal(err)
		}
		if !p.DemandDriven {
			prog, picked = p, a
			break
		}
	}
	if prog == nil {
		t.Fatal("no staged program in the registry")
	}
	for _, mode := range []Mode{ModePacked, ModeShared} {
		t.Run(fmt.Sprintf("%s/%v", picked.Name(), mode), func(t *testing.T) {
			want := freshResult(t, prog, mode, mach.CD, mach.CS)
			pristine := faultTriple(t)
			tr := faultTriple(t)
			team, err := NewTeam(prog.Cores)
			if err != nil {
				t.Fatal(err)
			}
			defer team.Close()
			ex, err := NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
			if err != nil {
				t.Fatal(err)
			}
			col := &collector{}
			ex.SetFaultInjector(col)
			if err := ex.Run(prog); err != nil {
				t.Fatalf("dry scan: %v", err)
			}
			// Corrupt a staged source (A or B) copy: sources stay clean in
			// the arenas, so the tripwire must catch the flip at the next
			// read of the copy — a refill or its release.
			var target faultinject.Point
			found := false
			for _, p := range col.points() {
				if (p.Kind == faultinject.Stage || p.Kind == faultinject.StageShared) && p.Line.Matrix != matrix.MatC {
					target, found = p, true
					break
				}
			}
			if !found {
				t.Fatal("dry scan saw no source staging point")
			}
			plan := &faultinject.Plan{Rules: []faultinject.Rule{{
				Core:    target.Op.Core,
				OpIndex: target.Op.Index,
				Ops:     faultinject.Mask(target.Kind),
				Action:  faultinject.Action{Kind: faultinject.ActCorrupt, Bit: 3},
			}}}

			restoreTriple(t, tr, pristine)
			ex.SetFaultInjector(plan)
			ex.SetIntegrityChecks(true)
			err = ex.Run(prog)
			if err == nil {
				t.Fatalf("corruption at %v went undetected with integrity checks on", target.Op)
			}
			if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("want ErrIntegrity, got %v", err)
			}
			var re *RunError
			if !errors.As(err, &re) || !re.HasOp {
				t.Fatalf("tripwire fired without op provenance: %v", err)
			}

			// The same flip with the tripwire dark: the run completes and
			// the product is silently wrong.
			ex.Reset()
			ex.SetIntegrityChecks(false)
			restoreTriple(t, tr, pristine)
			if err := ex.Run(prog); err != nil {
				t.Fatalf("corrupted run with checks off: %v", err)
			}
			if d := tr.C.Dense().MaxAbsDiff(want); d == 0 {
				t.Fatal("corruption had no effect on the product; the tripwire case proved nothing")
			}

			// Recovery: drop the plan and the executor is healthy again.
			ex.SetFaultInjector(nil)
			restoreTriple(t, tr, pristine)
			if err := ex.Run(prog); err != nil {
				t.Fatalf("clean run after corruption cycles: %v", err)
			}
			if d := tr.C.Dense().MaxAbsDiff(want); d != 0 {
				t.Fatalf("clean run deviates from fresh executor by %g", d)
			}
		})
	}
}

// TestRunContextCancelledBeforeRun: an already-cancelled context fails
// the run at the first barrier with a RunError unwrapping to
// context.Canceled, quarantines the executor, and Reset restores it.
func TestRunContextCancelledBeforeRun(t *testing.T) {
	mach := testMachine(4)
	a := algo.Extended()[0]
	prog, err := a.Schedule(mach, algo.Workload{M: faultM, N: faultN, Z: faultZ})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModePacked, ModeShared, ModeSharedPipelined} {
		t.Run(fmt.Sprintf("%v", mode), func(t *testing.T) {
			want := freshResult(t, prog, mode, mach.CD, mach.CS)
			pristine := faultTriple(t)
			tr := faultTriple(t)
			team, err := NewTeam(prog.Cores)
			if err != nil {
				t.Fatal(err)
			}
			defer team.Close()
			ex, err := NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err = ex.RunContext(ctx, prog)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			var re *RunError
			if !errors.As(err, &re) {
				t.Fatalf("cancellation surfaced without RunError: %v", err)
			}
			if re.Op.Core != schedule.DriverCore {
				t.Fatalf("cancellation attributed to core %d, want the driver", re.Op.Core)
			}
			if ex.Err() == nil {
				t.Fatal("cancelled run did not quarantine the executor")
			}
			if err := ex.Run(prog); err == nil || !strings.Contains(err.Error(), "quarantined") {
				t.Fatalf("quarantined executor accepted a Run: %v", err)
			}
			ex.Reset()
			restoreTriple(t, tr, pristine)
			if err := ex.RunContext(context.Background(), prog); err != nil {
				t.Fatalf("clean run after cancellation: %v", err)
			}
			if d := tr.C.Dense().MaxAbsDiff(want); d != 0 {
				t.Fatalf("post-cancel run deviates from fresh executor by %g", d)
			}
		})
	}
}

// TestRunContextDeadlineMidRun: a deadline expiring while the replay is
// in flight (every op slowed by an injected delay) is honoured at the
// next barrier — the run returns DeadlineExceeded instead of running to
// completion, and Reset restores the executor.
func TestRunContextDeadlineMidRun(t *testing.T) {
	mach := testMachine(4)
	var prog *schedule.Program
	for _, a := range algo.Extended() {
		p, err := a.Schedule(mach, algo.Workload{M: faultM, N: faultN, Z: faultZ})
		if err != nil {
			t.Fatal(err)
		}
		if !p.DemandDriven {
			prog = p
			break
		}
	}
	if prog == nil {
		t.Fatal("no staged program in the registry")
	}
	for _, mode := range []Mode{ModeShared, ModeSharedPipelined} {
		t.Run(fmt.Sprintf("%v", mode), func(t *testing.T) {
			tr := faultTriple(t)
			pristine := faultTriple(t)
			team, err := NewTeam(prog.Cores)
			if err != nil {
				t.Fatal(err)
			}
			defer team.Close()
			ex, err := NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
			if err != nil {
				t.Fatal(err)
			}
			ex.SetFaultInjector(&faultinject.Plan{Rules: []faultinject.Rule{{
				Core:    -1,
				OpIndex: -1,
				Ops:     faultinject.AnyOp,
				Action:  faultinject.Action{Kind: faultinject.ActDelay, Delay: 2 * time.Millisecond},
			}}})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			err = ex.RunContext(ctx, prog)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("want DeadlineExceeded, got %v", err)
			}
			ex.Reset()
			ex.SetFaultInjector(nil)
			restoreTriple(t, tr, pristine)
			if err := ex.Run(prog); err != nil {
				t.Fatalf("clean run after deadline: %v", err)
			}
		})
	}
}

// TestTeamFaultIsolation: a panicking body becomes a *RunError carrying
// the core, the panic value and a stack — the process survives, the
// remaining workers run to completion, the join returns, and the team
// stays usable.
func TestTeamFaultIsolation(t *testing.T) {
	team, err := NewTeam(4)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	var ran [4]int32
	err = team.Run(func(c int) error {
		if c == 2 {
			panic("boom")
		}
		atomic.AddInt32(&ran[c], 1)
		return nil
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("panic surfaced as %v, want *RunError", err)
	}
	if !re.Panicked || re.Op.Core != 2 {
		t.Fatalf("RunError core %d Panicked=%v, want core 2 panicked", re.Op.Core, re.Panicked)
	}
	if re.PanicValue != "boom" {
		t.Fatalf("PanicValue = %v, want boom", re.PanicValue)
	}
	if len(re.Stack) == 0 {
		t.Fatal("RunError carries no stack")
	}
	if re.Unwrap() != nil {
		t.Fatalf("a panic RunError must unwrap to nil, got %v", re.Unwrap())
	}
	for c, r := range ran {
		if c != 2 && r != 1 {
			t.Fatalf("core %d did not run to completion beside the panic", c)
		}
	}
	// The team survives the panic.
	if err := team.Run(func(int) error { return nil }); err != nil {
		t.Fatalf("team unusable after an isolated panic: %v", err)
	}
}

// TestTeamLaunchAfterCloseFaults: work dispatched to a closed Team
// degrades to a clean error — never a panic on a closed channel.
func TestTeamLaunchAfterCloseFaults(t *testing.T) {
	team, err := NewTeam(2)
	if err != nil {
		t.Fatal(err)
	}
	team.Close()
	if err := team.Run(func(int) error { return nil }); err == nil || !strings.Contains(err.Error(), "closed Team") {
		t.Fatalf("Run on a closed team: %v", err)
	}
	wait := team.Launch(func(int) error { return nil })
	if err := wait(); err == nil || !strings.Contains(err.Error(), "closed Team") {
		t.Fatalf("Launch on a closed team: %v", err)
	}
}

// TestTeamLaunchBeforeJoinFaults: the Team runs one launch at a time;
// a second Launch before the first is joined fails cleanly instead of
// clobbering the shared join state, and the first launch still joins.
func TestTeamLaunchBeforeJoinFaults(t *testing.T) {
	team, err := NewTeam(2)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	release := make(chan struct{})
	wait := team.Launch(func(int) error {
		<-release
		return nil
	})
	if err := team.Launch(func(int) error { return nil })(); err == nil || !strings.Contains(err.Error(), "not joined") {
		t.Fatalf("Launch before the join: %v", err)
	}
	close(release)
	if err := wait(); err != nil {
		t.Fatalf("first launch: %v", err)
	}
	if err := team.Run(func(int) error { return nil }); err != nil {
		t.Fatalf("team unusable after a refused launch: %v", err)
	}
}

// waitNoGoroutineLeak asserts the goroutine count settles back to the
// baseline, retrying briefly: worker goroutines observe the channel
// close asynchronously after Close returns.
func waitNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTeamFaultCycleLeaksNoGoroutines: repeated team lifecycles —
// including runs killed by panics — leave no workers behind after
// Close. A stranded worker here would mean the join deadlocked or a
// channel was never closed.
func TestTeamFaultCycleLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		team, err := NewTeam(8)
		if err != nil {
			t.Fatal(err)
		}
		if err := team.Run(func(c int) error {
			if c%3 == 0 {
				panic("cycle")
			}
			return nil
		}); err == nil {
			t.Fatal("panic did not surface")
		}
		team.Close()
	}
	waitNoGoroutineLeak(t, baseline)
}

// TestFaultedExecutorLeaksNoGoroutines: a full executor lifecycle whose
// run dies on an injected worker panic must unwind completely — every
// worker parks back on its job channel and Close reaps all of them.
func TestFaultedExecutorLeaksNoGoroutines(t *testing.T) {
	mach := testMachine(4)
	a := algo.Extended()[0]
	prog, err := a.Schedule(mach, algo.Workload{M: faultM, N: faultN, Z: faultZ})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		tr := faultTriple(t)
		team, err := NewTeam(prog.Cores)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewExecutor(team, tr, nil, ModeSharedPipelined, mach.CD, mach.CS)
		if err != nil {
			t.Fatal(err)
		}
		ex.SetFaultInjector(&faultinject.Plan{Rules: []faultinject.Rule{{
			Core:    -1,
			OpIndex: -1,
			Ops:     faultinject.ApplyOnly,
			Action:  faultinject.Action{Kind: faultinject.ActPanic},
		}}})
		err = ex.Run(prog)
		var re *RunError
		if !errors.As(err, &re) || !re.Panicked {
			t.Fatalf("injected panic surfaced as %v", err)
		}
		team.Close()
	}
	waitNoGoroutineLeak(t, baseline)
}

// FuzzFaultedRunNeverDeadlocks is the liveness guarantee of the failure
// model: under an arbitrary seeded fault plan — probabilistic panics,
// kernel and staging errors, bit flips, delays, in any combination over
// any shape, mode and algorithm — a run always returns (no deadlocked
// join, no stranded stager), always reports failures as structured
// *RunErrors, and the executor always comes back: after Reset and
// restored inputs a clean run matches the naive product. The CI race
// job replays the corpus under -race.
func FuzzFaultedRunNeverDeadlocks(f *testing.F) {
	for i := range algo.Extended() {
		f.Add(uint8(i), uint8(6), uint8(5), uint8(4), uint8(4), uint64(i), uint8(1<<(i%5)), uint8(i%3))
	}
	f.Add(uint8(0), uint8(9), uint8(7), uint8(5), uint8(4), uint64(42), uint8(0x1f), uint8(1)) // every rule armed
	f.Add(uint8(2), uint8(5), uint8(5), uint8(5), uint8(1), uint64(7), uint8(0x09), uint8(2))  // q=1, panic+corrupt
	f.Fuzz(func(t *testing.T, algoIdx, rowsRaw, colsRaw, innerRaw, qRaw uint8, seed uint64, ruleBits, modeRaw uint8) {
		algos := algo.Extended()
		a := algos[int(algoIdx)%len(algos)]
		rows := int(rowsRaw%24) + 1
		cols := int(colsRaw%24) + 1
		inner := int(innerRaw%24) + 1
		q := int(qRaw%8) + 1
		mode := []Mode{ModePacked, ModeShared, ModeSharedPipelined}[int(modeRaw)%3]

		mach := testMachine(4)
		mach.Q = q
		tr, err := matrix.NewTripleDims(rows, cols, inner, q, seed)
		if err != nil {
			t.Fatal(err)
		}
		m, n, z := tr.Dims()
		prog, err := a.Schedule(mach, algo.Workload{M: m, N: n, Z: z})
		if err != nil {
			t.Fatal(err)
		}
		team, err := NewTeam(mach.P)
		if err != nil {
			t.Fatal(err)
		}
		defer team.Close()
		ex, err := NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
		if err != nil {
			t.Fatal(err)
		}

		// The rule pool; ruleBits arms an arbitrary subset. Probabilities
		// draw from the plan seed per coordinate, so every fuzz input is a
		// different — but individually deterministic — storm.
		pool := []faultinject.Rule{
			{Core: -1, OpIndex: -1, Ops: faultinject.ApplyOnly, Prob: 0.02, Action: faultinject.Action{Kind: faultinject.ActPanic}},
			{Core: -1, OpIndex: -1, Ops: faultinject.ApplyOnly, Prob: 0.05, Action: faultinject.Action{Kind: faultinject.ActError}},
			{Core: -1, OpIndex: -1, Ops: faultinject.AnyStage, Prob: 0.05, Action: faultinject.Action{Kind: faultinject.ActError}},
			{Core: -1, OpIndex: -1, Ops: faultinject.AnyStage, Prob: 0.1, Action: faultinject.Action{Kind: faultinject.ActCorrupt, Bit: uint(ruleBits) % 64}},
			{Core: -1, OpIndex: -1, Ops: faultinject.AnyOp, Prob: 0.02, Action: faultinject.Action{Kind: faultinject.ActDelay, Delay: 50 * time.Microsecond}},
		}
		plan := &faultinject.Plan{Seed: seed}
		for i, r := range pool {
			if ruleBits&(1<<i) != 0 {
				plan.Rules = append(plan.Rules, r)
			}
		}
		ex.SetFaultInjector(plan)
		ex.SetIntegrityChecks(true)

		// Liveness: the faulted run must return. The join, the pipelined
		// stager and the sticky-error path have no unbounded waits, so a
		// hang here is a real deadlock — flag it well before the test
		// binary's own timeout obscures which input hung.
		done := make(chan error, 1)
		go func() { done <- ex.Run(prog) }()
		select {
		case err = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("%s %v %dx%dx%d q=%d plan %q: faulted run deadlocked", a.Name(), mode, rows, cols, inner, q, plan)
		}
		if err != nil {
			var re *RunError
			if !errors.As(err, &re) {
				t.Fatalf("%s %v plan %q: fault surfaced without RunError provenance: %v", a.Name(), mode, plan, err)
			}
			ex.Reset()
		}

		// Recovery: with the plan dropped and inputs restored, the same
		// executor must produce the correct product.
		ex.SetFaultInjector(nil)
		ex.SetIntegrityChecks(false)
		fresh, err := matrix.NewTripleDims(rows, cols, inner, q, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]*matrix.Dense{
			{tr.A.Dense(), fresh.A.Dense()},
			{tr.B.Dense(), fresh.B.Dense()},
			{tr.C.Dense(), fresh.C.Dense()},
		} {
			if err := pair[0].CopyFrom(pair[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := ex.Run(prog); err != nil {
			t.Fatalf("%s %v plan %q: clean run after faulted run: %v", a.Name(), mode, plan, err)
		}
		want := matrix.New(rows, cols)
		if err := matrix.MulNaive(want, tr.A.Dense(), tr.B.Dense()); err != nil {
			t.Fatal(err)
		}
		if diff := tr.C.Dense().MaxAbsDiff(want); diff > 1e-9 {
			t.Fatalf("%s %v plan %q: recovered run deviates from naive by %g", a.Name(), mode, plan, diff)
		}
	})
}
