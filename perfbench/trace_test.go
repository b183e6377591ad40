package main

import (
	"math"
	"testing"
)

func TestSelfTimesAndResidual(t *testing.T) {
	// op [0,10] with children a [1,4] and b [5,9]; a has child c [2,3].
	tr := &tracer{spans: []span{
		{Name: "op", Start: 0, End: 10e9, Parent: -1, Op: 1},
		{Name: "parallel.run", Start: 1e9, End: 4e9, Parent: 0, Op: 1},
		{Name: "matrix.kernel", Start: 2e9, End: 3e9, Parent: 1, Op: 1},
		{Name: "schedule.optimize", Start: 5e9, End: 9e9, Parent: 0, Op: 1},
		{Name: "schedule.optimize", Start: 0, End: 2e9, Parent: -1, Op: probeOp},
	}}
	self := tr.selfTimes()
	for i, want := range []float64{3, 2, 1, 4, 2} {
		if math.Abs(self[i]-want) > 1e-9 {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want)
		}
	}
	res := tr.residuals("op")
	if len(res) != 1 || res[0].op != 1 || math.Abs(res[0].frac-0.3) > 1e-9 {
		t.Errorf("residuals = %+v, want op 1 frac 0.3", res)
	}
	layers := tr.layerSelf()
	for l, want := range map[string]float64{"op": 3, "parallel": 2, "matrix": 1, "schedule": 4} {
		if math.Abs(layers[l]-want) > 1e-9 {
			t.Errorf("layer %s self = %v, want %v", l, layers[l], want)
		}
	}
	if got := tr.perOp("schedule.optimize"); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("perOp = %v, want [2 4]", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	called := false
	if err := tr.do("x", func() error { called = true; return nil }); err != nil || !called {
		t.Fatalf("do on nil tracer: err %v, called %v", err, called)
	}
}

func TestSlopeAndQuantile(t *testing.T) {
	xs := []float64{math.Log(16), math.Log(32), math.Log(64)}
	ys := []float64{3 * xs[0], 3*xs[1] + 0.1, 3*xs[2] + 0.2}
	if s := slope(xs, ys); math.Abs(s-(3+0.1/math.Log(2))) > 1e-9 {
		t.Errorf("slope = %v", s)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if q := quantile([]float64{0, 10}, 0.25); q != 2.5 {
		t.Errorf("quantile = %v, want 2.5", q)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}
