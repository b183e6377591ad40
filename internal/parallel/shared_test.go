package parallel

import (
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/schedule"
)

// The shared arena's staging discipline mirrors the IDEAL shared
// cache's: no re-stage of a resident block, no overflow past CS, no
// release of a non-resident block.
func TestSharedArenaDiscipline(t *testing.T) {
	tiles := tileBinding(t, 2, 2, 2)
	sa, err := NewSharedArena(2, tiles)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := tileOf(t, tiles, schedule.LineA(0, 0)), tileOf(t, tiles, schedule.LineB(0, 0)), tileOf(t, tiles, schedule.LineC(0, 0))
	if _, err := sa.Stage(a); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Stage(a); err == nil || !strings.Contains(err.Error(), "resident") {
		t.Fatalf("re-stage not rejected: %v", err)
	}
	if _, err := sa.Stage(b); err != nil {
		t.Fatal(err)
	}
	// Overflowing CS is an error, exactly as loading into a full IDEAL
	// cache.
	if _, err := sa.Stage(c); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("overflow past CS not rejected: %v", err)
	}
	if _, _, err := sa.Unstage(c); err == nil {
		t.Fatal("unstage of non-resident block not rejected")
	}
	if sa.Capacity() != 2 || sa.Resident() != 2 {
		t.Fatalf("Capacity/Resident = %d/%d, want 2/2", sa.Capacity(), sa.Resident())
	}
}

// A core arena may only refill blocks that are shared-resident — the
// physical form of the inclusive hierarchy's discipline.
func TestSharedArenaRefillRequiresResidency(t *testing.T) {
	tiles := tileBinding(t, 4, 4, 4)
	sa, err := NewSharedArena(3, tiles)
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewArena(3, tiles)
	if err != nil {
		t.Fatal(err)
	}
	a := tileOf(t, tiles, schedule.LineA(0, 0))
	if _, err := sa.Refill(core, a); err == nil || !strings.Contains(err.Error(), "not resident") {
		t.Fatalf("refill of non-resident shared block not rejected: %v", err)
	}
	src := tileView(t, tiles, schedule.LineA(0, 0))
	if _, err := sa.Stage(a); err != nil {
		t.Fatal(err)
	}
	values, err := sa.Refill(core, a)
	if err != nil {
		t.Fatal(err)
	}
	if values != 16 {
		t.Fatalf("refill moved %d values, want 16", values)
	}
	slot := core.tile(a)
	if slot == nil {
		t.Fatal("refill did not stage into the core arena")
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if slot.data[i*4+j] != src.At(i, j) {
				t.Fatalf("refilled[%d,%d] = %g, want %g", i, j, slot.data[i*4+j], src.At(i, j))
			}
		}
	}
}

// Absorb merges a dirty core tile into the resident shared copy and
// marks it dirty, so the eventual shared unstage writes it to memory.
func TestSharedArenaAbsorbAndWriteBack(t *testing.T) {
	tiles := tileBinding(t, 2, 2, 2)
	sa, err := NewSharedArena(2, tiles)
	if err != nil {
		t.Fatal(err)
	}
	l := schedule.LineC(0, 0)
	id := tileOf(t, tiles, l)
	dst := tileView(t, tiles, l)
	if _, err := sa.Stage(id); err != nil {
		t.Fatal(err)
	}
	// A clean unstage must not write back.
	if _, dirty, err := sa.Unstage(id); err != nil || dirty {
		t.Fatalf("clean unstage: dirty=%v err=%v", dirty, err)
	}
	// Absorbing into a non-resident block is an inclusion violation.
	fresh := []float64{1, 2, 3, 4}
	if err := sa.Absorb(id, 2, 2, fresh); err == nil || !strings.Contains(err.Error(), "not resident") {
		t.Fatalf("absorb into non-resident block not rejected: %v", err)
	}
	if _, err := sa.Stage(id); err != nil {
		t.Fatal(err)
	}
	// A shape mismatch indicates slot corruption and must fail loudly.
	if err := sa.Absorb(id, 1, 2, fresh); err == nil || !strings.Contains(err.Error(), "over a") {
		t.Fatalf("mismatched absorb not rejected: %v", err)
	}
	if err := sa.Absorb(id, 2, 2, fresh); err != nil {
		t.Fatal(err)
	}
	values, dirty, err := sa.Unstage(id)
	if err != nil {
		t.Fatal(err)
	}
	if !dirty || values != 4 {
		t.Fatalf("absorbed unstage: dirty=%v values=%d, want true/4", dirty, values)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if dst.At(i, j) != fresh[i*2+j] {
				t.Fatalf("written-back[%d,%d] = %g, want %g", i, j, dst.At(i, j), fresh[i*2+j])
			}
		}
	}
}

// Drain writes only dirty tiles and leaves the arena empty — the
// end-of-run safety net for sloppy schedules.
func TestSharedArenaDrain(t *testing.T) {
	tiles := tileBinding(t, 2, 2, 2)
	sa, err := NewSharedArena(3, tiles)
	if err != nil {
		t.Fatal(err)
	}
	clean, dirtied := tileOf(t, tiles, schedule.LineB(0, 0)), tileOf(t, tiles, schedule.LineC(0, 0))
	for _, id := range []matrix.TileID{clean, dirtied} {
		if _, err := sa.Stage(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.Absorb(dirtied, 2, 2, []float64{5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	var merged []matrix.TileID
	n, err := sa.Drain(func(id matrix.TileID, rows, cols int, data []float64) error {
		merged = append(merged, id)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(merged) != 1 || merged[0] != dirtied {
		t.Fatalf("Drain merged %v (n=%d), want only %v", merged, n, dirtied)
	}
	if sa.Resident() != 0 {
		t.Fatalf("Resident = %d after drain, want 0", sa.Resident())
	}
}

// Ragged boundary tiles pack into partial slots and round-trip through
// stage → refill → absorb → unstage without padding artefacts.
func TestSharedArenaRaggedRoundTrip(t *testing.T) {
	const q = 4
	tiles := tileBinding(t, q, 7, 5) // ragged: 2×2 blocks of q=4 with 3×1 edges
	sa, err := NewSharedArena(2, tiles)
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewArena(2, tiles)
	if err != nil {
		t.Fatal(err)
	}
	l := schedule.LineC(1, 1) // bottom-right 3×1 edge tile
	id := tileOf(t, tiles, l)
	if _, err := sa.Stage(id); err != nil {
		t.Fatal(err)
	}
	values, err := sa.Refill(core, id)
	if err != nil {
		t.Fatal(err)
	}
	if values != 3 {
		t.Fatalf("ragged refill moved %d values, want 3", values)
	}
	slot := core.tile(id)
	slot.data[0], slot.data[1], slot.data[2] = 1, 2, 3
	slot.dirty = true
	rows, cols, data, dirty, err := core.release(id)
	if err != nil || !dirty {
		t.Fatalf("release: dirty=%v err=%v", dirty, err)
	}
	if err := sa.Absorb(id, rows, cols, data); err != nil {
		t.Fatal(err)
	}
	if _, dirty, err := sa.Unstage(id); err != nil || !dirty {
		t.Fatalf("unstage: dirty=%v err=%v", dirty, err)
	}
	dst := tileView(t, tiles, l)
	for i := 0; i < 3; i++ {
		if dst.At(i, 0) != float64(i+1) {
			t.Fatalf("ragged round trip lost data: dst[%d,0] = %g, want %d", i, dst.At(i, 0), i+1)
		}
	}
}

func TestNewSharedArenaRejectsBadParams(t *testing.T) {
	tiles := tileBinding(t, 4, 4, 4)
	if _, err := NewSharedArena(0, tiles); err == nil {
		t.Fatal("zero capacity must fail")
	}
	if _, err := NewSharedArena(4, nil); err == nil {
		t.Fatal("a missing operand binding must fail")
	}
}
