package parallel

import (
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/schedule"
)

// tileBinding binds A, B and C, each a rows×cols matrix cut into q×q
// tiles (A and B random, C zero), as the operand set an arena test
// stages from.
func tileBinding(t *testing.T, q, rows, cols int) *matrix.Operands {
	t.Helper()
	var ms []*matrix.Blocked
	for id, d := range []*matrix.Dense{matrix.Random(rows, cols, 3), matrix.Random(rows, cols, 4), matrix.New(rows, cols)} {
		b, err := matrix.NewBlocked(matrix.MatrixID(id), d, q)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, b)
	}
	o, err := matrix.NewOperands(ms...)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// tileOf resolves l in the binding o, failing the test if it is out of
// range.
func tileOf(t *testing.T, o *matrix.Operands, l schedule.Line) matrix.TileID {
	t.Helper()
	id, err := o.TileID(l)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// tileView is l's strided view in the binding o.
func tileView(t *testing.T, o *matrix.Operands, l schedule.Line) *matrix.Dense {
	t.Helper()
	d, err := o.Block(l)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestArenaStageComputeUnstage(t *testing.T) {
	tiles := tileBinding(t, 4, 8, 8)
	ar, err := NewArena(3, tiles)
	if err != nil {
		t.Fatal(err)
	}
	l := schedule.LineA(0, 1)
	id := tileOf(t, tiles, l)
	src := tileView(t, tiles, l) // strided tile of the operand
	want := src.Clone()
	if values, err := ar.Stage(id); err != nil || values != 16 {
		t.Fatalf("Stage = %d, %v; want 16 values", values, err)
	}
	if ar.Resident() != 1 {
		t.Fatalf("Resident = %d, want 1", ar.Resident())
	}
	slot := ar.tile(id)
	if slot == nil || slot.rows != 4 || slot.cols != 4 {
		t.Fatalf("tile not staged correctly: %+v", slot)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if slot.data[i*4+j] != src.At(i, j) {
				t.Fatalf("packed[%d,%d] = %g, want %g", i, j, slot.data[i*4+j], src.At(i, j))
			}
		}
	}
	// A clean unstage must not write back.
	src.Zero()
	if _, dirty, err := ar.Unstage(id); err != nil || dirty {
		t.Fatalf("clean unstage: dirty=%v err=%v", dirty, err)
	}
	if src.FrobeniusNorm() != 0 {
		t.Fatal("clean tile wrote back")
	}
	// A dirty unstage must.
	if err := src.CopyFrom(want); err != nil {
		t.Fatal(err)
	}
	if _, err := ar.Stage(id); err != nil {
		t.Fatal(err)
	}
	ar.tile(id).dirty = true
	src.Zero()
	if _, dirty, err := ar.Unstage(id); err != nil || !dirty {
		t.Fatalf("dirty unstage: dirty=%v err=%v", dirty, err)
	}
	if src.MaxAbsDiff(want) != 0 {
		t.Fatal("dirty tile did not write back the packed image")
	}
	if ar.Resident() != 0 {
		t.Fatalf("Resident = %d after unstage, want 0", ar.Resident())
	}
}

func TestArenaDiscipline(t *testing.T) {
	tiles := tileBinding(t, 2, 2, 2)
	ar, err := NewArena(2, tiles)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := tileOf(t, tiles, schedule.LineA(0, 0)), tileOf(t, tiles, schedule.LineB(0, 0)), tileOf(t, tiles, schedule.LineC(0, 0))
	if _, err := ar.Stage(a); err != nil {
		t.Fatal(err)
	}
	// Re-staging a resident line is a schedule bug, exactly as in IDEAL.
	if _, err := ar.Stage(a); err == nil || !strings.Contains(err.Error(), "resident") {
		t.Fatalf("re-stage not rejected: %v", err)
	}
	if _, err := ar.Stage(b); err != nil {
		t.Fatal(err)
	}
	// Overflowing the capacity is too.
	if _, err := ar.Stage(c); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("overflow not rejected: %v", err)
	}
	// So is unstaging a non-resident line.
	if _, _, err := ar.Unstage(c); err == nil {
		t.Fatal("unstage of non-resident line not rejected")
	}
	// An oversized tile cannot be staged.
	if _, _, err := ar.Unstage(b); err != nil {
		t.Fatal(err)
	}
	if err := ar.stagePacked(b, 3, 3, make([]float64, 9)); err == nil {
		t.Fatal("oversized tile not rejected")
	}
	// Nor can an id outside the binding.
	if _, err := ar.Stage(matrix.TileID(tiles.Tiles())); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range id not rejected: %v", err)
	}
}

func TestArenaSlotReuse(t *testing.T) {
	// Stage/unstage cycling through more distinct blocks than slots must
	// work indefinitely — slots are recycled.
	tiles := tileBinding(t, 3, 3, 30)
	ar, err := NewArena(2, tiles)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		id := tileOf(t, tiles, schedule.LineB(0, round))
		if _, err := ar.Stage(id); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, _, err := ar.Unstage(id); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if ar.Capacity() != 2 {
		t.Fatalf("Capacity = %d, want 2", ar.Capacity())
	}
}

func TestArenaDrainMergesDirtyTiles(t *testing.T) {
	tiles := tileBinding(t, 2, 2, 4)
	ar, err := NewArena(3, tiles)
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := tileOf(t, tiles, schedule.LineC(0, 0)), tileOf(t, tiles, schedule.LineC(0, 1))
	src := matrix.Random(2, 2, 9)
	for _, id := range []matrix.TileID{c0, c1} {
		if err := ar.stagePacked(id, 2, 2, src.Clone().Data()); err != nil {
			t.Fatal(err)
		}
	}
	ar.tile(c0).dirty = true
	merged, err := ar.Drain(func(id matrix.TileID, _, _ int, data []float64) error {
		return tiles.UnpackTile(id, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged != 1 {
		t.Fatalf("Drain merged %d tiles, want 1", merged)
	}
	if tileView(t, tiles, schedule.LineC(0, 0)).MaxAbsDiff(src) != 0 {
		t.Fatal("dirty tile not merged")
	}
	if tileView(t, tiles, schedule.LineC(0, 1)).FrobeniusNorm() != 0 {
		t.Fatal("clean tile merged")
	}
	if ar.Resident() != 0 {
		t.Fatalf("Resident = %d after drain, want 0", ar.Resident())
	}
}

func TestNewArenaRejectsBadParams(t *testing.T) {
	tiles := tileBinding(t, 4, 4, 4)
	if _, err := NewArena(0, tiles); err == nil {
		t.Fatal("zero capacity must fail")
	}
	if _, err := NewArena(4, nil); err == nil {
		t.Fatal("a missing operand binding must fail")
	}
}
