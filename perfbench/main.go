// Command perfbench is the repository's benchmark. It runs one workload
// for a given number of seconds, checks every op's result, and prints
// one JSON object as the last line of its output:
//
//	go run . --workload gemm-q32-warm --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics a caller sees: set-up
// time, the first op, the median op, heap allocated per op and peak
// resident memory. The times are scaled to the reference host's speed
// by a calibration loop timed before every op (see calib.go); the raw
// seconds are printed beside them. With --trace 1 it times each layer's
// public calls from this package, keeps the spans in memory, writes them
// under .bench_build/perfbench at exit and reports the per-layer
// metrics. run.py builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times an untraced run sets its workload up
// and runs a first op; setup_s and first_op_s are the medians. The
// rounds are spread over the whole run, each followed by steady ops,
// so a slow spell of the host reaches few of them.
const setupRounds = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
}

// traceDir is where a traced run writes its spans, inside the build
// directory run.py uses.
const traceDir = ".bench_build/perfbench"

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func warnf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long the op loop runs")
	trace := fs.Int("trace", 0, "1 times each layer and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	found := false
	for _, w := range workloads() {
		if w.name == *name {
			cfg.workload, found = w, true
		}
	}
	if !found || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		warnf("need --workload (one of %s), --seconds > 0 and --trace 0 or 1", strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := measure(cfg, stdout)
	if err != nil {
		warnf("%s: %v", cfg.workload.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		warnf("%v", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

// opStats is what the rounds and the op loop measured.
type opStats struct {
	setups, firsts    []float64 // seconds of each round's set-up and first op
	untraced, traced  []float64 // seconds of the op loop's ops
	allocBytes        float64   // heap allocated by the loop's untraced ops
	attempted, failed int
	cal               *calibration // nil in a traced run
	calibs            []float64    // seconds of the calibration before each op
}

// runOp prepares and runs op i, traced or not, checks it, and returns
// its seconds and the heap bytes it allocated.
func (st *opStats) runOp(inst instance, tr *tracer, i int, traced bool) (float64, float64) {
	var before, after runtime.MemStats
	inst.prepare()
	if st.cal != nil {
		st.calibs = append(st.calibs, st.cal.sample())
	}
	// Every op starts from a collected heap, so no op pays for the
	// garbage of the one before it.
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	var err error
	if traced {
		tr.op = i
		id := tr.begin("op")
		err = inst.tracedOp(tr)
		tr.end(id)
		tr.op = probeOp
	} else {
		err = inst.op()
	}
	d := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	st.attempted++
	if err == nil {
		err = inst.check()
	}
	if err != nil {
		st.failed++
		warnf("op %d: %v", i, err)
	}
	return d, float64(after.TotalAlloc - before.TotalAlloc)
}

// setUp replaces *inst with a fresh instance of the workload, timing it
// and its first op into st. The previous instance is closed and
// collected first, so no two instances share the heap.
func setUp(cfg config, inst *instance, tr *tracer, st *opStats) error {
	if *inst != nil {
		(*inst).close()
		*inst = nil
	}
	runtime.GC()
	t0 := time.Now()
	fresh, err := cfg.workload.setup(cfg.seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	*inst = fresh
	st.setups = append(st.setups, time.Since(t0).Seconds())
	d, _ := st.runOp(fresh, tr, 0, tr != nil)
	st.firsts = append(st.firsts, d)
	return nil
}

func measure(cfg config, stdout io.Writer) (result, error) {
	host := readHost()
	var st opStats
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	} else {
		var err error
		if st.cal, err = newCalibration(); err != nil {
			return result{}, err
		}
	}
	// A warm-up round, checked but not timed, faults in the heap the
	// workload needs, so no timed round pays for the process being new.
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	if err := setUp(cfg, &inst, nil, &st); err != nil {
		return result{}, err
	}
	st.setups, st.firsts, st.calibs = nil, nil, nil
	// An untraced run splits its seconds into setupRounds rounds of
	// set-up, first op and steady ops. The traced run needs one round,
	// whose first op it traces, then the probes and its op loop.
	next := 1
	start := time.Now()
	for r := 0; r < setupRounds; r++ {
		if err := setUp(cfg, &inst, tr, &st); err != nil {
			return result{}, err
		}
		if cfg.trace {
			break
		}
		deadline := start.Add(time.Duration(float64(r+1) / setupRounds * cfg.seconds * float64(time.Second)))
		opLoop(inst, nil, &st, deadline, 1, &next)
	}

	var pr *probes
	var pb *problem
	if cfg.trace {
		pr = &probes{values: map[string]float64{}}
		var err error
		if pb, err = inst.problem(); err != nil {
			return result{}, fmt.Errorf("problem: %w", err)
		}
		if err := runProbes(tr, host, pb, cfg.seed, pr); err != nil {
			return result{}, fmt.Errorf("probes: %w", err)
		}
		opLoop(inst, tr, &st, time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))), 4, &next)
	}
	res := result{Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metric{}}
	if pr != nil {
		res.Attempted += pr.attempts
		res.Failed += pr.failures
	}
	res.Correct = res.Failed == 0

	fmt.Fprintf(stdout, "workload %s seed %d: %s\n", cfg.workload.name, cfg.seed, cfg.workload.why)
	fmt.Fprintf(stdout, "host: %s, nproc %d, GOMAXPROCS %d, %s, last-level cache %d bytes\n",
		host.CPUModel, host.NProc, host.GOMAXPROCS, host.GoVersion, host.LLCBytes)
	fmt.Fprintf(stdout, "ops: %d attempted, %d failed (failed_frac %.4f)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))

	if cfg.trace {
		vals, err := layerMetrics(tr, pr, pb, st)
		if err != nil {
			return result{}, err
		}
		for _, m := range perLayerSpecs() {
			v, ok := vals[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return result{}, fmt.Errorf("per-layer metric %s missing or not finite (%v)", m.name, v)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		path, err := tr.write(traceDir, cfg.workload.name, cfg.seed, host)
		if err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "bandwidth arrays %.0f bytes each (last-level cache %d bytes); spans in %s\n",
			pr.values["bw_array_bytes"], host.LLCBytes, path)
		self := tr.layerSelf()
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(stdout, "  self time per traced op  %-10s %.6f s\n", l, self[l])
		}
	} else {
		// Times are reported at the reference host's speed: each median
		// is scaled by refCalS over the run's median calibration time.
		cal := median(st.calibs)
		scale := refCalS / cal
		p50 := median(st.untraced)
		res.Metrics["setup_s"] = metric{median(st.setups) * scale, "s"}
		res.Metrics["first_op_s"] = metric{median(st.firsts) * scale, "s"}
		res.Metrics["op_s_p50"] = metric{p50 * scale, "s"}
		res.Metrics["alloc_mb_per_op"] = metric{st.allocBytes / float64(len(st.untraced)) / 1e6, "MB"}
		res.Metrics["peak_rss_mb"] = metric{float64(peakRSSBytes()) / 1e6, "MB"}
		fmt.Fprintf(stdout, "calibration median %.5f s over %d samples, so times below are scaled by %.4f\n", cal, len(st.calibs), scale)
		fmt.Fprintf(stdout, "raw seconds: setup_s %.6f first_op_s %.6f op_s_p50 %.6f\n", median(st.setups), median(st.firsts), p50)
		fmt.Fprintf(stdout, "set-up seconds %.3f, first-op seconds %.3f\n", st.setups, st.firsts)
		fmt.Fprintf(stdout, "op_s_p50 over %d ops (first ops excluded), quartiles %.4f..%.4f s; gflops %.4f GFLOP/s\n",
			len(st.untraced), quantile(st.untraced, 0.25), quantile(st.untraced, 0.75), inst.flops()/p50/1e9)
		fmt.Fprintf(stdout, "op seconds: %.3f\n", st.untraced)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// opLoop runs steady ops until deadline, and at least minOps of them;
// *next is the id of the next op. Traced runs alternate untraced and
// traced ops, so the two medians share the same conditions.
func opLoop(inst instance, tr *tracer, st *opStats, deadline time.Time, minOps int, next *int) {
	for n := 1; ; n++ {
		i := *next
		*next++
		traced := tr != nil && i%2 == 0
		d, alloc := st.runOp(inst, tr, i, traced)
		if traced {
			st.traced = append(st.traced, d)
		} else {
			st.untraced = append(st.untraced, d)
			st.allocBytes += alloc
		}
		if n >= minOps && !time.Now().Before(deadline) {
			return
		}
	}
}

// runProbes times every layer: the kernels and copies, the compile and
// executor layers on the workload's program, and the simulator on the
// paper sweep.
func runProbes(tr *tracer, host hostInfo, pb *problem, seed uint64, pr *probes) error {
	if err := probeMatrix(tr, host, pr); err != nil {
		return err
	}
	opt, err := probeSchedule(tr, pb, pr)
	if err != nil {
		return err
	}
	if err := probeOptimizeSlope(tr, pr); err != nil {
		return err
	}
	if err := probeParallel(tr, pb, opt, pr); err != nil {
		return err
	}
	return probeSweep(tr, seed, pr)
}
