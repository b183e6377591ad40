package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// probeOp is the op id of spans recorded outside the op loop: the
// per-layer probes and the traced run's set-up.
const probeOp = -1

// span is one timed call into a layer, recorded from the benchmark's
// own files around a public function of that layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int    `json:"op"`     // op id, probeOp outside the op loop
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// layer is the name's first dot-separated element: "schedule" for
// "schedule.optimize".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; they are written out once, at exit. A
// nil *tracer records nothing, so the untraced run pays one nil check
// per call site.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	runs  []runSample
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: probeOp} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// durations returns the seconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// perOp sums the seconds of the spans called name within each op id and
// returns one total per op that has any.
func (t *tracer) perOp(name string) []float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Op] += s.seconds()
		}
	}
	ids := make([]int, 0, len(sums))
	for id := range sums {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = sums[id]
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children of one span never overlap:
// the benchmark calls layers one after another.
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.seconds()
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// layerSelf totals self time per layer over the spans of the op loop,
// divided by the number of ops.
func (t *tracer) layerSelf() map[string]float64 {
	self := t.selfTimes()
	out := map[string]float64{}
	ops := map[int]bool{}
	for i, s := range t.spans {
		if s.Op == probeOp {
			continue
		}
		ops[s.Op] = true
		out[s.layer()] += self[i]
	}
	for k := range out {
		out[k] /= float64(len(ops))
	}
	return out
}

// residual is the share of one root span's duration that no child
// span covers.
type residual struct {
	op   int
	frac float64
}

// residuals returns the residual of every root span called root.
func (t *tracer) residuals(root string) []residual {
	self := t.selfTimes()
	var out []residual
	for i, s := range t.spans {
		if s.Name == root && s.Parent < 0 && s.End > s.Start {
			out = append(out, residual{s.Op, self[i] / s.seconds()})
		}
	}
	return out
}

// write stores the spans and the layer self times as one JSON document
// under dir.
func (t *tracer) write(dir, workload string, seed uint64, host hostInfo) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	doc := struct {
		Workload  string             `json:"workload"`
		Seed      uint64             `json:"seed"`
		Host      hostInfo           `json:"host"`
		LayerSelf map[string]float64 `json:"layer_self_s_per_op"`
		Spans     []span             `json:"spans"`
	}{workload, seed, host, t.layerSelf(), t.spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
