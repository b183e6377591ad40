package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/matrix"
)

// spec names one per-layer metric and its unit.
type spec struct{ name, unit string }

// simSettings are the simulator settings in the paper's order.
var simSettings = []core.RunSetting{core.SettingIdeal, core.SettingLRU, core.SettingLRU2x, core.SettingLRU50}

// perLayerSpecs lists every per-layer metric a traced run reports.
func perLayerSpecs() []spec {
	out := []spec{
		{"schedule.emit_s", "s"},
		{"schedule.ops", "count"},
		{"schedule.regions", "count"},
		{"schedule.optimize_s", "s"},
		{"schedule.optimize_alloc_mb", "MB"},
		{"schedule.optimize_elided", "count"},
		{"schedule.optimize_slope", "1"},
		{"schedule.measure_s", "s"},
		{"schedule.plan_s", "s"},
		{"verify.program_s", "s"},
		{"verify.findings", "count"},
		{"parallel.run_cold_s", "s"},
		{"parallel.replay_s", "s"},
		{"parallel.prepare_s", "s"},
		{"parallel.compute_s", "s"},
		{"parallel.stage_wait_s", "s"},
		{"parallel.driver_s", "s"},
		{"parallel.team_run_us", "us"},
		{"parallel.ms_bytes", "bytes"},
		{"parallel.md_bytes", "bytes"},
	}
	for _, k := range []string{"muladd", "mulsub"} {
		for _, sh := range matrix.Shapes() {
			for _, q := range kernelQs {
				out = append(out, spec{fmt.Sprintf("matrix.%s_gflops.%s.q%d", k, sh, q), "GFLOP/s"})
			}
		}
	}
	out = append(out, spec{"matrix.pack_gbps", "GB/s"}, spec{"matrix.unpack_gbps", "GB/s"}, spec{"matrix.memmove_gbps", "GB/s"})
	for _, s := range simSettings {
		out = append(out, spec{"core.sim_s." + string(s), "s"})
	}
	return append(out,
		spec{"cache.ms_misses", "count"},
		spec{"cache.md_misses", "count"},
		spec{"baseline.seq_s", "s"},
		spec{"model.tdata_s_pred", "s"},
		spec{"model.kernel_s_pred", "s"},
		spec{"trace.residual_frac", "frac"},
		spec{"trace.overhead_frac", "frac"},
	)
}

// layerMetrics derives the per-layer metrics from the spans, the
// executor samples and the probes' own numbers.
func layerMetrics(tr *tracer, pr *probes, pb *problem, st opStats) (map[string]float64, error) {
	v := map[string]float64{}
	for k, x := range pr.values {
		v[k] = x
	}
	for _, n := range []string{"schedule.emit", "schedule.optimize", "schedule.measure", "schedule.plan", "verify.program"} {
		v[n+"_s"] = median(tr.durations(n))
	}

	var cold, replay, compute, staging, driver []float64
	for _, r := range tr.runs {
		switch r.name {
		case "parallel.run_cold":
			cold = append(cold, r.seconds)
		case "parallel.replay":
			replay = append(replay, r.seconds)
			compute = append(compute, r.compute)
			staging = append(staging, r.staging)
			driver = append(driver, r.seconds-r.compute-r.staging)
		}
	}
	v["parallel.run_cold_s"] = median(cold)
	v["parallel.replay_s"] = median(replay)
	v["parallel.prepare_s"] = median(cold) - median(replay)
	v["parallel.compute_s"] = median(compute)
	v["parallel.stage_wait_s"] = median(staging)
	v["parallel.driver_s"] = median(driver)

	for _, s := range simSettings {
		v["core.sim_s."+string(s)] = median(tr.perOp("core.sim." + string(s)))
	}
	v["baseline.seq_s"] = pb.seqS

	// The paper's Tdata with σS and σD fitted from the measured pack and
	// copy rates, and the kernel time at the workload's MulAdd rate.
	v["model.tdata_s_pred"] = v["parallel.ms_bytes"]/(v["matrix.pack_gbps"]*1e9) +
		v["parallel.md_bytes"]/(v["matrix.memmove_gbps"]*1e9)
	rate := v[fmt.Sprintf("matrix.muladd_gflops.%s.q%d", pb.tun.Kernels.Shape, pb.q)]
	v["model.kernel_s_pred"] = pb.flops / (float64(pb.team.Size()) * rate * 1e9)

	var resid []float64
	for _, r := range tr.residuals("op") {
		if r.op > 0 {
			resid = append(resid, r.frac)
		}
	}
	v["trace.residual_frac"] = median(resid)
	if len(st.traced) == 0 || len(st.untraced) == 0 {
		return nil, fmt.Errorf("traced run has %d traced and %d untraced steady ops", len(st.traced), len(st.untraced))
	}
	v["trace.overhead_frac"] = median(st.traced)/median(st.untraced) - 1
	for k, x := range v {
		if math.IsNaN(x) {
			return nil, fmt.Errorf("%s is NaN", k)
		}
	}
	return v, nil
}
