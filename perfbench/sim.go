package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// The paper sweep is the simulator layer's probe: the paper's seven
// algorithms under its four cache settings at block order simOrder on
// the quad-core with q=32, checked against exact counts.
//
// simOrder is the block order of the sweep.
const simOrder = 64

// simGoldenJSON holds the exact counts of every (algorithm, setting)
// pair of the sweep. The counts depend on nothing but the schedules, so
// any change to them is a change of behaviour, not of speed.
//
//go:embed sim_golden.json
var simGoldenJSON []byte

// simCounts is one row of the golden file.
type simCounts struct {
	Algorithm string   `json:"algorithm"`
	Setting   string   `json:"setting"`
	MS        uint64   `json:"ms"`
	MD        uint64   `json:"md"`
	MDPerCore []uint64 `json:"md_per_core"`
	WriteBack uint64   `json:"write_back"`
}

func simKey(alg string, set core.RunSetting) string { return alg + "|" + string(set) }

// closedForm is an IDEAL run of Shared Opt. or Distributed Opt. on the
// largest order up to the sweep's that meets the algorithm's
// divisibility assumptions, next to the paper's closed form for it.
type closedForm struct {
	res    algo.Result
	ms, md float64
}

type simRun struct {
	alg algo.Algorithm
	set core.RunSetting
}

// paperSweep is one set-up sweep and the results of its last run.
type paperSweep struct {
	sim     *core.Simulator
	w       algo.Workload
	runs    []simRun // every (algorithm, setting), in seed order
	golden  map[string]simCounts
	aligned []closedForm // IDEAL runs on orders the closed forms hold exactly
	bound   map[core.RunSetting]bounds.Report
	staged  map[string]schedule.WorkingSet // IDEAL-declared programs that stage
	results []algo.Result
}

// newPaperSweep builds the simulator and everything the check compares
// against: the golden counts, the closed forms of the two optimal
// algorithms, the lower bounds and the working set each staged
// program declares. The seed orders the sweep.
func newPaperSweep(seed uint64) (*paperSweep, error) {
	cfg, err := machine.FindConfig(32)
	if err != nil {
		return nil, err
	}
	mach := cfg.Machine(machine.PaperCores, false)
	in := &paperSweep{w: algo.Square(simOrder),
		golden: map[string]simCounts{},
		bound:  map[core.RunSetting]bounds.Report{}, staged: map[string]schedule.WorkingSet{}}
	if in.sim, err = core.New(mach); err != nil {
		return nil, err
	}
	var rows []simCounts
	if err := json.Unmarshal(simGoldenJSON, &rows); err != nil {
		return nil, fmt.Errorf("golden counts: %w", err)
	}
	for _, r := range rows {
		in.golden[simKey(r.Algorithm, core.RunSetting(r.Setting))] = r
	}
	var all []simRun
	for _, a := range algo.Extended() {
		for _, set := range core.Settings() {
			all = append(all, simRun{a, set})
		}
		if w, ok := alignedOrder(a, mach); ok {
			ms, md, ok := a.Predict(mach, w)
			if !ok {
				return nil, fmt.Errorf("%s has no closed form", a.Name())
			}
			res, err := algo.RunIdeal(a, mach, w)
			if err != nil {
				return nil, err
			}
			in.aligned = append(in.aligned, closedForm{res, ms, md})
		}
		prog, err := a.Schedule(mach, in.w)
		if err != nil {
			return nil, err
		}
		if !prog.DemandDriven {
			ws, err := schedule.Measure(prog)
			if err != nil {
				return nil, err
			}
			in.staged[a.Name()] = ws
		}
	}
	for _, i := range rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)).Perm(len(all)) {
		in.runs = append(in.runs, all[i])
	}
	for _, set := range core.Settings() {
		actual := mach
		if set == core.SettingLRU2x {
			actual = mach.Scale(2)
		}
		in.bound[set] = bounds.NewReport(actual, simOrder, simOrder, simOrder)
	}
	in.results = make([]algo.Result, len(in.runs))
	return in, nil
}

// run simulates every (algorithm, setting) pair, each in a span named
// after its setting.
func (sw *paperSweep) run(tr *tracer) error {
	for i, r := range sw.runs {
		if err := tr.do("core.sim."+string(r.set), func() (err error) {
			sw.results[i], err = sw.sim.Run(r.alg, sw.w, r.set)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// check compares every result with the golden counts, the closed forms
// and the lower bounds, and the IDEAL runs of staged programs with the
// traffic their working sets declare.
func (sw *paperSweep) check() error {
	for i, r := range sw.runs {
		res, name := sw.results[i], r.alg.Name()
		got := simCounts{Algorithm: name, Setting: string(r.set), MS: res.MS, MD: res.MD, MDPerCore: res.MDPerCore, WriteBack: res.WriteBack}
		want, ok := sw.golden[simKey(name, r.set)]
		if !ok {
			return fmt.Errorf("%s %s: no golden counts", name, r.set)
		}
		if got.MS != want.MS || got.MD != want.MD || got.WriteBack != want.WriteBack || !slices.Equal(got.MDPerCore, want.MDPerCore) {
			return fmt.Errorf("%s %s: counts %+v, golden %+v", name, r.set, got, want)
		}
		b := sw.bound[r.set]
		if float64(res.MS) < b.MS || float64(res.MD) < b.MD {
			return fmt.Errorf("%s %s: MS=%d MD=%d below the lower bounds %.1f, %.1f", name, r.set, res.MS, res.MD, b.MS, b.MD)
		}
		if r.set != core.SettingIdeal {
			continue
		}
		if ws, ok := sw.staged[name]; ok {
			var md uint64
			for _, m := range res.MDPerCore {
				md += m
			}
			if res.MS != ws.SharedStages || md != ws.Stages {
				return fmt.Errorf("%s IDEAL: MS=%d, ΣMD=%d; the program stages %d shared, %d core blocks",
					name, res.MS, md, ws.SharedStages, ws.Stages)
			}
		}
	}
	for _, c := range sw.aligned {
		if float64(c.res.MS) != c.ms || float64(c.res.MD) != c.md {
			return fmt.Errorf("%s IDEAL at %dx%dx%d: MS=%d MD=%d, closed form %v, %v",
				c.res.Algorithm, c.res.Workload.M, c.res.Workload.N, c.res.Workload.Z, c.res.MS, c.res.MD, c.ms, c.md)
		}
	}
	return nil
}

// alignedOrder returns the workload on which a's closed form is exact:
// Shared Opt. needs m and n to be multiples of λ, Distributed Opt.
// multiples of the core grid times µ. Other algorithms are not checked
// against a closed form.
func alignedOrder(a algo.Algorithm, mach machine.Machine) (algo.Workload, bool) {
	switch a := a.(type) {
	case algo.SharedOpt:
		l := a.Params(mach)
		return algo.Workload{M: simOrder / l * l, N: simOrder / l * l, Z: simOrder}, true
	case algo.DistributedOpt:
		mu, gr, gc := a.Params(mach)
		return algo.Workload{M: simOrder / (gr * mu) * gr * mu, N: simOrder / (gc * mu) * gc * mu, Z: simOrder}, true
	}
	return algo.Workload{}, false
}

// idealTotals sums the IDEAL-setting MS and MD of the last sweep.
func (sw *paperSweep) idealTotals() (ms, md uint64) {
	for i, r := range sw.runs {
		if r.set == core.SettingIdeal {
			ms += sw.results[i].MS
			md += sw.results[i].MD
		}
	}
	return ms, md
}
