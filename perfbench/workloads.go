package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/algo"
	"repro/internal/lu"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/schedule"
)

// workers is the team size of the executor workloads.
const workers = 2

// workload is one named input family. setup builds everything the op
// loop needs from the seed: inputs, Team, executor and the reference
// result.
type workload struct {
	name  string
	why   string
	setup func(seed uint64) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// prepare restores the op's input; it is not timed.
	prepare()
	// op is the timed call a library caller makes.
	op() error
	// tracedOp does the same work as op through the public calls of
	// each layer, each inside a span.
	tracedOp(tr *tracer) error
	// check verifies the last op's output; it is not timed.
	check() error
	// flops is the useful arithmetic of one op.
	flops() float64
	// problem is the executor-level problem the per-layer probes time.
	problem() (*problem, error)
	close()
}

func workloads() []workload {
	return []workload{
		{"lu-nb64-cold", "one fresh FactorParallelTuned per op at n=1024 nb=64, so compiling the schedule dominates", setupLU},
		{"gemm-q32-warm", "Shared Opt. n=1024 q=32 pipelined, executor reused, so kernels dominate", setupGEMM(32, 32, parallel.ModeSharedPipelined)},
		{"gemm-q8-serial", "Shared Opt. n=512 q=8 serial shared mode, executor reused, so per-op driver overhead dominates", setupGEMM(64, 8, parallel.ModeShared)},
	}
}

// problem is what the per-layer probes need to time one workload's
// schedule and executor layers on its own program.
type problem struct {
	team *parallel.Team
	mach machine.Machine
	tun  parallel.Tuning   // the workload's tuning, optimizer on
	prog *schedule.Program // the emitted program, before optimizing
	// newExecutor binds a fresh executor, optimizer off, to the
	// operands; prepare and check restore and verify them.
	newExecutor func() (*parallel.Executor, error)
	prepare     func()
	check       func() error
	flops       float64
	q           int
	seqS        float64 // the single-threaded reference, timed in set-up
}

// noOpt is tun with the optimizer off: traced paths optimize in their
// own span and hand the executor the optimized program.
func noOpt(tun parallel.Tuning) parallel.Tuning {
	tun.Optimize = false
	return tun
}

// bitwiseEqual reports whether got and want hold the same float64 bit
// patterns, NaNs included.
func bitwiseEqual(got, want *matrix.Dense) error {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	gd, wd := got.Data(), want.Data()
	gs, ws := got.Stride(), want.Stride()
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			if g, w := gd[i*gs+j], wd[i*ws+j]; math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("element (%d,%d) is %v, want %v", i, j, g, w)
			}
		}
	}
	return nil
}

// --- lu-nb64-cold ---

type luInst struct {
	n, q             int
	team             *parallel.Team
	mach             machine.Machine
	tun              parallel.Tuning
	orig, work, want *matrix.Dense
	seqS             float64
}

func setupLU(seed uint64) (instance, error) {
	const n, q = 1024, 16
	in := &luInst{n: n, q: q, mach: lu.MachineFor(workers, q), tun: parallel.Tuning{Optimize: true}}
	in.orig = lu.RandomDominant(n, seed)
	in.work = matrix.New(n, n)
	in.want = in.orig.Clone()
	t0 := time.Now()
	if err := lu.Factor(in.want, q); err != nil {
		return nil, fmt.Errorf("sequential reference: %w", err)
	}
	in.seqS = time.Since(t0).Seconds()
	team, err := parallel.NewTeam(workers)
	if err != nil {
		return nil, err
	}
	in.team = team
	return in, nil
}

func (in *luInst) prepare() { _ = in.work.CopyFrom(in.orig) } // same shape: cannot fail

func (in *luInst) op() error {
	_, err := lu.FactorParallelTuned(in.work, in.q, in.team, parallel.ModeSharedPipelined, in.mach, in.tun)
	return err
}

func (in *luInst) tracedOp(tr *tracer) error {
	var run *lu.Run
	if err := tr.do("lu.new_run", func() (err error) {
		run, err = lu.NewRun(in.work, in.q, in.team, parallel.ModeSharedPipelined, in.mach, noOpt(in.tun))
		return err
	}); err != nil {
		return err
	}
	var opt *schedule.Program
	if err := tr.do("schedule.optimize", func() (err error) {
		opt, _, err = schedule.Optimize(run.Prog, schedule.OptimizeOptions{})
		return err
	}); err != nil {
		return err
	}
	return tr.run("parallel.run_cold", run.Ex, opt)
}

func (in *luInst) check() error {
	if err := bitwiseEqual(in.work, in.want); err != nil {
		return fmt.Errorf("LU factors differ from sequential lu.Factor: %w", err)
	}
	return nil
}

func (in *luInst) flops() float64 { return 2 * math.Pow(float64(in.n), 3) / 3 }

func (in *luInst) problem() (*problem, error) {
	prog, err := lu.Program(in.mach, in.n/in.q)
	if err != nil {
		return nil, err
	}
	return &problem{
		team: in.team, mach: in.mach, tun: in.tun, prog: prog,
		newExecutor: func() (*parallel.Executor, error) {
			run, err := lu.NewRun(in.work, in.q, in.team, parallel.ModeSharedPipelined, in.mach, noOpt(in.tun))
			if err != nil {
				return nil, err
			}
			return run.Ex, nil
		},
		prepare: in.prepare, check: in.check, flops: in.flops(), q: in.q, seqS: in.seqS,
	}, nil
}

func (in *luInst) close() { in.team.Close() }

// --- gemm-q32-warm and gemm-q8-serial ---

type gemmInst struct {
	order, q int
	mode     parallel.Mode
	team     *parallel.Team
	mach     machine.Machine
	tun      parallel.Tuning
	tri      *matrix.Triple
	prog     *schedule.Program
	ex       *parallel.Executor
	want     *matrix.Dense
	seqS     float64
	// The traced path optimizes in its own span and replays on an
	// executor with the optimizer off.
	tex  *parallel.Executor
	topt *schedule.Program
}

func setupGEMM(order, q int, mode parallel.Mode) func(uint64) (instance, error) {
	return func(seed uint64) (instance, error) {
		in := &gemmInst{order: order, q: q, mode: mode, mach: lu.MachineFor(workers, q), tun: parallel.Tuning{Optimize: true}}
		tri, err := matrix.NewTriple(order, order, order, q, seed)
		if err != nil {
			return nil, err
		}
		in.tri = tri
		in.prog, err = sharedOpt(in.mach, order)
		if err != nil {
			return nil, err
		}
		if in.team, err = parallel.NewTeam(workers); err != nil {
			return nil, err
		}
		if in.ex, err = in.newExecutor(in.tun); err != nil {
			in.team.Close()
			return nil, err
		}
		t0 := time.Now()
		if in.want, err = parallel.Reference(tri); err != nil {
			in.team.Close()
			return nil, fmt.Errorf("sequential reference: %w", err)
		}
		in.seqS = time.Since(t0).Seconds()
		return in, nil
	}
}

func sharedOpt(mach machine.Machine, order int) (*schedule.Program, error) {
	a, err := algo.ByName("Shared Opt.")
	if err != nil {
		return nil, err
	}
	return a.Schedule(mach, algo.Workload{M: order, N: order, Z: order})
}

func (in *gemmInst) newExecutor(tun parallel.Tuning) (*parallel.Executor, error) {
	ex, err := parallel.NewExecutor(in.team, in.tri, nil, in.mode, in.mach.CD, in.mach.CS)
	if err != nil {
		return nil, err
	}
	ex.SetTuning(tun)
	return ex, nil
}

func (in *gemmInst) prepare() { in.tri.C.Dense().Zero() }

func (in *gemmInst) op() error { return in.ex.Run(in.prog) }

func (in *gemmInst) tracedOp(tr *tracer) error {
	if in.tex != nil {
		return tr.run("parallel.replay", in.tex, in.topt)
	}
	if err := tr.do("schedule.optimize", func() (err error) {
		in.topt, _, err = schedule.Optimize(in.prog, schedule.OptimizeOptions{})
		return err
	}); err != nil {
		return err
	}
	if err := tr.do("parallel.new_executor", func() (err error) {
		in.tex, err = in.newExecutor(noOpt(in.tun))
		return err
	}); err != nil {
		return err
	}
	return tr.run("parallel.run_cold", in.tex, in.topt)
}

func (in *gemmInst) check() error {
	if err := bitwiseEqual(in.tri.C.Dense(), in.want); err != nil {
		return fmt.Errorf("C differs from parallel.Reference: %w", err)
	}
	return nil
}

func (in *gemmInst) flops() float64 { return 2 * math.Pow(float64(in.order*in.q), 3) }

func (in *gemmInst) problem() (*problem, error) {
	return &problem{
		team: in.team, mach: in.mach, tun: in.tun, prog: in.prog,
		newExecutor: func() (*parallel.Executor, error) {
			return in.newExecutor(noOpt(in.tun))
		},
		prepare: in.prepare, check: in.check, flops: in.flops(), q: in.q, seqS: in.seqS,
	}, nil
}

func (in *gemmInst) close() { in.team.Close() }
