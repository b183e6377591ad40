package parallel

import (
	"testing"
	"unsafe"

	"repro/internal/algo"
	"repro/internal/matrix"
)

// execOp is what every recorded region is made of; it stays within 16
// bytes — three tile ids, not three 24-byte coordinates.
func TestExecOpIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(execOp{}); size > 16 {
		t.Fatalf("execOp is %d bytes, want at most 16", size)
	}
}

// Launching a region and joining it allocates nothing: the Team reuses
// its join state across launches.
func TestTeamLaunchAllocationFree(t *testing.T) {
	team, err := NewTeam(4)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	var ran [4]int
	body := func(c int) error {
		ran[c]++
		return nil
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := team.Launch(body)(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Launch+join allocates %g objects, want 0", allocs)
	}
	for c, n := range ran {
		if n != 101 {
			t.Fatalf("core %d ran %d bodies, want 101", c, n)
		}
	}
}

// A warm Run of a staged Shared Opt. program allocates a constant number
// of objects: nothing per region launch, per transfer or per kernel, so
// order 16 — 8× the transfers and regions of order 8 — allocates exactly
// what order 8 does. The optimizer is on, as in the benchmarks: its
// rewritten Body replays without allocating, where the emitted Body
// allocates one closure per region that the serial modes re-emit.
func TestWarmRunAllocsConstant(t *testing.T) {
	mach := testMachine(2)
	a, err := algo.ByName("Shared Opt.")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModePacked, ModeShared, ModeSharedPipelined} {
		t.Run(mode.String(), func(t *testing.T) {
			var allocs [2]float64
			for i, order := range []int{8, 16} {
				tr, err := matrix.NewTriple(order, order, order, mach.Q, 5)
				if err != nil {
					t.Fatal(err)
				}
				prog, err := a.Schedule(mach, algo.Workload{M: order, N: order, Z: order})
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
				ex.SetTuning(Tuning{Optimize: true})
				if err := ex.Run(prog); err != nil { // cold: optimize, validate, record
					t.Fatal(err)
				}
				allocs[i] = testing.AllocsPerRun(3, func() {
					if err := ex.Run(prog); err != nil {
						t.Fatal(err)
					}
				})
			}
			t.Logf("warm Run allocations: order 8 %g, order 16 %g", allocs[0], allocs[1])
			if allocs[0] != allocs[1] {
				t.Fatalf("warm Run allocates %g objects at order 8 but %g at order 16: something allocates per region or per transfer",
					allocs[0], allocs[1])
			}
		})
	}
}
