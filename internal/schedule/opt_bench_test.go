package schedule_test

import (
	"runtime"
	"testing"

	"repro/internal/algo"
	"repro/internal/lu"
	"repro/internal/schedule"
)

// countBackend counts the ops and regions of a replayed stream without
// retaining anything.
type countBackend struct {
	cores        int
	ops, regions int
}

func (c *countBackend) StageShared(schedule.Line)   { c.ops++ }
func (c *countBackend) UnstageShared(schedule.Line) { c.ops++ }
func (c *countBackend) Parallel(body func(core int, ops schedule.CoreSink)) {
	c.regions++
	for core := 0; core < c.cores; core++ {
		body(core, (*countSink)(c))
	}
}

type countSink countBackend

func (c *countSink) Stage(schedule.Line)                                    { c.ops++ }
func (c *countSink) Unstage(schedule.Line)                                  { c.ops++ }
func (c *countSink) Read(schedule.Line)                                     { c.ops++ }
func (c *countSink) Write(schedule.Line)                                    { c.ops++ }
func (c *countSink) Apply(schedule.Kernel, schedule.Line, ...schedule.Line) { c.ops++ }
func (c *countSink) Compute(int, int, int)                                  { c.ops++ }

// sharedOptProgram is Shared Opt. at order n (blocks) with tile edge q
// on the executor's host model with two cores.
func sharedOptProgram(order, q int) (*schedule.Program, error) {
	a, err := algo.ByName("Shared Opt.")
	if err != nil {
		return nil, err
	}
	return a.Schedule(lu.MachineFor(2, q), algo.Square(order))
}

// BenchmarkOptimize times schedule.Optimize on LU at q = 16 with two
// cores (the cold-factorisation compile path) and on Shared Opt. at
// order 64, q = 8 (the serial shared-mode GEMM). ns/recop is the time
// per recorded op of the input program: flat across block orders when
// the pass is linear in program size.
func BenchmarkOptimize(b *testing.B) {
	cases := []struct {
		name  string
		build func() (*schedule.Program, error)
	}{
		{"lu_nb16", func() (*schedule.Program, error) { return lu.Program(lu.MachineFor(2, 16), 16) }},
		{"lu_nb32", func() (*schedule.Program, error) { return lu.Program(lu.MachineFor(2, 16), 32) }},
		{"lu_nb64", func() (*schedule.Program, error) { return lu.Program(lu.MachineFor(2, 16), 64) }},
		{"sharedopt_order64_q8", func() (*schedule.Program, error) { return sharedOptProgram(64, 8) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			p, err := c.build()
			if err != nil {
				b.Fatal(err)
			}
			cb := &countBackend{cores: p.Cores}
			if err := p.Emit(cb); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := schedule.Optimize(p, schedule.OptimizeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cb.ops), "ns/recop")
		})
	}
}

// TestOptimizedBodyReplayAllocs pins the cost of replaying an optimized
// program: serial shared mode re-records the Body on every run, so one
// replay may allocate at most one 16-byte closure per surviving region
// (plus one for the call itself), and never per op.
func TestOptimizedBodyReplayAllocs(t *testing.T) {
	p, err := sharedOptProgram(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	q, rep, err := schedule.Optimize(p, schedule.OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed {
		t.Fatalf("Shared Opt. order 64 was not rewritten: %q", rep.SkipReason)
	}
	cb := &countBackend{cores: q.Cores}
	q.Body(cb) // warm up and count the surviving regions
	regions := cb.regions

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	q.Body(cb)
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("replay of %d regions: %d mallocs, %d bytes", regions, mallocs, bytes)
	if limit := uint64(regions + 1); mallocs > limit {
		t.Errorf("replay made %d allocations, want at most %d (one per region)", mallocs, limit)
	}
	if limit := uint64(16 * (regions + 1)); bytes > limit {
		t.Errorf("replay allocated %d bytes, want at most %d (16 per region)", bytes, limit)
	}
}
