package schedule_test

// The optimizer's differential golden: every program of a fixed grid is
// optimized under each OptimizeOptions, and a digest of the returned op
// stream plus the full report is compared with the digests committed in
// testdata/optimize_golden.txt. A rewrite of the pass's internals must
// leave every line unchanged — same elisions, same ledger, same skip
// reasons — so this is the old-against-new proof for any change that
// claims to be a pure speed-up. Regenerate with
//
//	go test ./internal/schedule -run TestOptimizeGolden -update
//
// only when the pass's output is meant to change.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/lu"
	"repro/internal/machine"
	"repro/internal/schedule"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/optimize_golden.txt from the current optimizer")

const goldenPath = "testdata/optimize_golden.txt"

// goldenOptions are the three pass selections every program runs under.
var goldenOptions = []struct {
	name string
	opts schedule.OptimizeOptions
}{
	{"all", schedule.OptimizeOptions{}},
	{"noshared", schedule.OptimizeOptions{NoSharedResidency: true}},
	{"nocore", schedule.OptimizeOptions{NoCoreReuse: true}},
}

type goldenProgram struct {
	name string
	prog *schedule.Program
}

// goldenPrograms is the grid: the verifier grid's tight machines (CS 64
// and 140 blocks, one and two chips) under every registered algorithm
// and LU, plus LU on the executor's host model at three tile sizes,
// core counts 1/2/4 and block orders up to 40 — large enough that the
// capacity profiles reject many candidates and the greedy commit order
// matters.
func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	var out []goldenProgram
	add := func(name string, p *schedule.Program, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, goldenProgram{name, p})
	}
	tight := []machine.Machine{
		{P: 1, CS: 64, CD: 8, Q: 8},
		{P: 2, CS: 64, CD: 8, Q: 8},
		{P: 2, CS: 64, CD: 8, Chips: 2, Q: 8},
		{P: 4, CS: 140, CD: 12, Q: 8},
		{P: 4, CS: 140, CD: 12, Chips: 2, Q: 8},
	}
	workloads := []algo.Workload{
		algo.Square(6),
		{M: 5, N: 3, Z: 7},
		{M: 1, N: 1, Z: 1},
		{M: 7, N: 2, Z: 5},
		algo.Square(16),
	}
	for _, m := range tight {
		m.SigmaS, m.SigmaD = machine.DefaultSigmaS, machine.DefaultSigmaD
		mach := fmt.Sprintf("p%d_cs%d_chips%d", m.P, m.CS, m.ChipCount())
		for _, a := range algo.Extended() {
			for _, w := range workloads {
				p, err := a.Schedule(m, w)
				add(fmt.Sprintf("%s/%s/%dx%dx%d", a.Name(), mach, w.M, w.N, w.Z), p, err)
			}
		}
		for _, nb := range []int{1, 2, 5, 6, 12} {
			p, err := lu.Program(m, nb)
			add(fmt.Sprintf("LU/%s/nb%d", mach, nb), p, err)
		}
	}
	for _, q := range []int{8, 16, 32} {
		for _, cores := range []int{1, 2, 4} {
			m := lu.MachineFor(cores, q)
			for _, nb := range []int{1, 2, 3, 4, 6, 9, 13, 19, 27, 40} {
				p, err := lu.Program(m, nb)
				add(fmt.Sprintf("LU/q%d_p%d/nb%d", q, cores, nb), p, err)
			}
		}
	}
	return out
}

// digestBackend encodes an op stream canonically — driver ops, region
// boundaries and every core op with its operands — into buf for
// hashing.
type digestBackend struct {
	buf   []byte
	cores int
}

func (d *digestBackend) op(tag byte, ls ...schedule.Line) {
	d.buf = append(d.buf, tag)
	for _, l := range ls {
		d.buf = append(d.buf, byte(l.Matrix))
		d.buf = binary.AppendVarint(d.buf, int64(l.Row))
		d.buf = binary.AppendVarint(d.buf, int64(l.Col))
	}
}

func (d *digestBackend) StageShared(l schedule.Line)   { d.op('S', l) }
func (d *digestBackend) UnstageShared(l schedule.Line) { d.op('U', l) }

func (d *digestBackend) Parallel(body func(core int, ops schedule.CoreSink)) {
	for c := 0; c < d.cores; c++ {
		d.buf = append(d.buf, 'c')
		d.buf = binary.AppendUvarint(d.buf, uint64(c))
		body(c, (*digestSink)(d))
	}
	d.buf = append(d.buf, '}')
}

type digestSink digestBackend

func (d *digestSink) Stage(l schedule.Line)   { (*digestBackend)(d).op('s', l) }
func (d *digestSink) Unstage(l schedule.Line) { (*digestBackend)(d).op('u', l) }
func (d *digestSink) Read(l schedule.Line)    { (*digestBackend)(d).op('r', l) }
func (d *digestSink) Write(l schedule.Line)   { (*digestBackend)(d).op('w', l) }
func (d *digestSink) Apply(k schedule.Kernel, dest schedule.Line, srcs ...schedule.Line) {
	(*digestBackend)(d).op('a'+byte(k), append([]schedule.Line{dest}, srcs...)...)
}
func (d *digestSink) Compute(i, j, k int) {
	d.buf = append(d.buf, 'x')
	for _, v := range []int{i, j, k} {
		d.buf = binary.AppendVarint(d.buf, int64(v))
	}
}

// goldenDigest optimizes p under opts and renders one golden line:
// whether the original pointer came back, the headline counts, short
// hashes of the returned op stream and of the full report, and the
// skip reason.
func goldenDigest(t *testing.T, p *schedule.Program, opts schedule.OptimizeOptions) string {
	t.Helper()
	q, rep, err := schedule.Optimize(p, opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	d := &digestBackend{cores: q.Cores}
	if err := q.Emit(d); err != nil {
		t.Fatalf("emit: %v", err)
	}
	stream := sha256.Sum256(d.buf)
	report := sha256.Sum256([]byte(fmt.Sprintf("%+v", rep)))
	return fmt.Sprintf("same=%v changed=%v elided=%d stream=%x report=%x skip=%q",
		q == p, rep.Changed, rep.TotalElided(), stream[:8], report[:8], rep.SkipReason)
}

func TestOptimizeGolden(t *testing.T) {
	var got []string
	for _, gp := range goldenPrograms(t) {
		for _, o := range goldenOptions {
			got = append(got, fmt.Sprintf("%s/%s\t%s", gp.name, o.name, goldenDigest(t, gp.prog, o.opts)))
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden grid has %d cases, testdata has %d", len(got), len(want))
	}
	changed := 0
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d differs:\n got  %s\n want %s", i, got[i], want[i])
		}
		if strings.Contains(got[i], "changed=true") {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no golden case was rewritten: the grid does not exercise the pass")
	}
}
