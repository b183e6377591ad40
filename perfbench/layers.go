package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/schedule"
	"repro/internal/schedule/verify"
)

// runSample is one executor Run with the executor's own split of it.
type runSample struct {
	name                      string
	seconds, compute, staging float64
}

// run replays prog on ex inside a span called name and keeps the
// executor's compute and stage-wait split of that Run.
func (t *tracer) run(name string, ex *parallel.Executor, prog *schedule.Program) error {
	id := t.begin(name)
	err := ex.Run(prog)
	t.end(id)
	if t != nil && err == nil {
		t.runs = append(t.runs, runSample{name, t.spans[id].seconds(), ex.ComputeTime().Seconds(), ex.StageWait().Seconds()})
	}
	return err
}

// countBackend counts the operations and regions a program emits.
type countBackend struct {
	cores        int
	ops, regions uint64
}

func (b *countBackend) StageShared(schedule.Line)   { b.ops++ }
func (b *countBackend) UnstageShared(schedule.Line) { b.ops++ }
func (b *countBackend) Parallel(body func(int, schedule.CoreSink)) {
	b.regions++
	for c := 0; c < b.cores; c++ {
		body(c, b)
	}
}
func (b *countBackend) Stage(schedule.Line)                                    { b.ops++ }
func (b *countBackend) Unstage(schedule.Line)                                  { b.ops++ }
func (b *countBackend) Read(schedule.Line)                                     { b.ops++ }
func (b *countBackend) Write(schedule.Line)                                    { b.ops++ }
func (b *countBackend) Apply(schedule.Kernel, schedule.Line, ...schedule.Line) { b.ops++ }
func (b *countBackend) Compute(int, int, int)                                  { b.ops++ }

// probes holds the per-layer numbers that are not span durations.
type probes struct {
	values   map[string]float64
	attempts int // executor runs the probes checked
	failures int
}

func (p *probes) fail(err error) {
	p.failures++
	warnf("probe: %v", err)
}

// repeat runs f n times, each inside a span called name.
func repeat(tr *tracer, name string, n int, f func() error) error {
	for i := 0; i < n; i++ {
		if err := tr.do(name, f); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// kernelQs are the tile edges of the kernel table: the workloads use
// q = 8, 16 and 32.
var kernelQs = []int{8, 16, 32}

// probeMatrix measures the kernel rates on packed tiles and the pack,
// unpack and memmove bandwidths, the roofline inputs of the run.
func probeMatrix(tr *tracer, host hostInfo, pr *probes) error {
	for _, sh := range matrix.Shapes() {
		kc := matrix.KernelConfig{Shape: sh}
		for _, q := range kernelQs {
			for _, k := range []struct {
				name string
				f    func(c, a, b *matrix.Dense) error
			}{{"muladd", kc.MulAdd}, {"mulsub", kc.MulSub}} {
				name := fmt.Sprintf("matrix.%s_gflops.%s.q%d", k.name, sh, q)
				var rate float64
				if err := tr.do(name, func() (err error) {
					rate, err = kernelRate(k.f, q)
					return err
				}); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				pr.values[name] = rate
			}
		}
	}
	return tr.do("matrix.bandwidth", func() error { return bandwidth(host, pr) })
}

// kernelRate is the median GFLOP/s of f on q×q packed tiles over five
// batches of at least 4 ms each.
func kernelRate(f func(c, a, b *matrix.Dense) error, q int) (float64, error) {
	a, b, c := matrix.Random(q, q, 1), matrix.Random(q, q, 2), matrix.Random(q, q, 3)
	batch := func(n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(c, a, b); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	n := 1
	for {
		d, err := batch(n)
		if err != nil {
			return 0, err
		}
		if d >= 4*time.Millisecond {
			break
		}
		n *= 2
	}
	rates := make([]float64, 5)
	for i := range rates {
		d, err := batch(n)
		if err != nil {
			return 0, err
		}
		rates[i] = 2 * math.Pow(float64(q), 3) * float64(n) / d.Seconds() / 1e9
	}
	return median(rates), nil
}

// bandwidth measures Pack (strided matrix → contiguous tiles), Unpack
// and a plain copy over arrays at least four times the last-level
// cache, in GB/s of payload (1e9 bytes per second).
func bandwidth(host hostInfo, pr *probes) error {
	const q = 32
	target := 4 * host.LLCBytes
	if target == 0 {
		target = 256 << 20
	}
	edge := int(math.Ceil(math.Sqrt(float64(target)/8)/q)) * q
	src := matrix.New(edge, edge)
	data := src.Data()
	for i := range data {
		data[i] = float64(i & 1023)
	}
	dst := make([]float64, edge*edge)
	bytes := float64(edge*edge) * 8
	pr.values["bw_array_bytes"] = bytes
	passes := map[string]func() error{
		"pack": func() error {
			off := 0
			for i := 0; i < edge; i += q {
				for j := 0; j < edge; j += q {
					n, err := matrix.Pack(dst[off:], src.View(i, j, q, q))
					if err != nil {
						return err
					}
					off += n
				}
			}
			return nil
		},
		"unpack": func() error {
			off := 0
			for i := 0; i < edge; i += q {
				for j := 0; j < edge; j += q {
					if err := matrix.Unpack(src.View(i, j, q, q), dst[off:off+q*q]); err != nil {
						return err
					}
					off += q * q
				}
			}
			return nil
		},
		"memmove": func() error { copy(dst, data); return nil },
	}
	// The first pass faults dst in; it is not timed.
	if err := passes["memmove"](); err != nil {
		return err
	}
	for _, name := range []string{"pack", "unpack", "memmove"} {
		rates := make([]float64, 3)
		for i := range rates {
			t0 := time.Now()
			if err := passes[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			rates[i] = bytes / time.Since(t0).Seconds() / 1e9
		}
		pr.values["matrix."+name+"_gbps"] = median(rates)
	}
	src, dst, data = nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	return nil
}

// probeSchedule times the compile layer on the workload's program:
// emission, the optimizer, working-set measurement, pipeline planning
// and the verifier. It returns the optimized program.
func probeSchedule(tr *tracer, pb *problem, pr *probes) (*schedule.Program, error) {
	prog := pb.prog
	cb := &countBackend{cores: prog.Cores}
	if err := repeat(tr, "schedule.emit", 3, func() error {
		*cb = countBackend{cores: prog.Cores}
		return prog.Emit(cb)
	}); err != nil {
		return nil, err
	}
	pr.values["schedule.ops"] = float64(cb.ops)
	pr.values["schedule.regions"] = float64(cb.regions)

	var opt *schedule.Program
	var rep schedule.OptimizeReport
	alloc, err := allocated(func() error {
		return tr.do("schedule.optimize", func() (err error) {
			opt, rep, err = schedule.Optimize(prog, schedule.OptimizeOptions{})
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	pr.values["schedule.optimize_alloc_mb"] = alloc / 1e6
	pr.values["schedule.optimize_elided"] = float64(rep.TotalElided())

	if err := repeat(tr, "schedule.measure", 3, func() error { _, err := schedule.Measure(opt); return err }); err != nil {
		return nil, err
	}
	depth := max(pb.tun.Lookahead, 1)
	if err := repeat(tr, "schedule.plan", 3, func() error {
		_, err := schedule.PlanPipelineDepth(opt, pb.mach.CS, depth)
		return err
	}); err != nil {
		return nil, err
	}
	var findings []verify.Finding
	if err := tr.do("verify.program", func() error {
		findings = verify.Program(opt, opt.Resources)
		return nil
	}); err != nil {
		return nil, err
	}
	pr.values["verify.findings"] = float64(len(findings))
	return opt, nil
}

// slopeNBs are the LU block orders the optimizer's scaling is fitted on.
var slopeNBs = []int{16, 32, 64}

// probeOptimizeSlope fits the log-log slope of schedule.Optimize's time
// on the LU program against its block order.
func probeOptimizeSlope(tr *tracer, pr *probes) error {
	mach := lu.MachineFor(workers, 16)
	var xs, ys []float64
	for _, nb := range slopeNBs {
		prog, err := lu.Program(mach, nb)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("schedule.optimize_lu.nb%d", nb)
		if err := tr.do(name, func() error { _, _, err := schedule.Optimize(prog, schedule.OptimizeOptions{}); return err }); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, math.Log(float64(nb)))
		ys = append(ys, math.Log(median(tr.durations(name))))
	}
	pr.values["schedule.optimize_slope"] = slope(xs, ys)
	return nil
}

// slope is the least-squares slope of ys against xs.
func slope(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	return num / den
}

// probeParallel times cold Runs on fresh executors and warm Runs on the
// last one, all of the already-optimized program with the optimizer
// off, checks every result, and times empty Team.Runs.
func probeParallel(tr *tracer, pb *problem, opt *schedule.Program, pr *probes) error {
	var ex *parallel.Executor
	runChecked := func(name string) error {
		pb.prepare()
		pr.attempts++
		if err := tr.run(name, ex, opt); err != nil {
			return err
		}
		if err := pb.check(); err != nil {
			pr.fail(err)
		}
		return nil
	}
	for i := 0; i < 2; i++ {
		var err error
		if ex, err = pb.newExecutor(); err != nil {
			return err
		}
		if err := runChecked("parallel.run_cold"); err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		if err := runChecked("parallel.replay"); err != nil {
			return err
		}
	}
	tra := ex.Traffic()
	pr.values["parallel.ms_bytes"] = float64(tra.MS.Bytes())
	pr.values["parallel.md_bytes"] = float64(tra.MD.Bytes())

	const batch = 200
	empty := func(int) error { return nil }
	if err := repeat(tr, "parallel.team_run", 5, func() error {
		for i := 0; i < batch; i++ {
			if err := pb.team.Run(empty); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	pr.values["parallel.team_run_us"] = median(tr.durations("parallel.team_run")) / batch * 1e6
	return nil
}

// probeSweep times one paper sweep on the simulator and checks it.
func probeSweep(tr *tracer, seed uint64, pr *probes) error {
	sw, err := newPaperSweep(seed)
	if err != nil {
		return err
	}
	pr.attempts++
	if err := sw.run(tr); err != nil {
		return err
	}
	if err := sw.check(); err != nil {
		pr.fail(err)
	}
	ms, md := sw.idealTotals()
	pr.values["cache.ms_misses"], pr.values["cache.md_misses"] = float64(ms), float64(md)
	return nil
}

// allocated returns the heap bytes f allocates, read outside f.
func allocated(f func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), err
}
