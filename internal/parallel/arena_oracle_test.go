package parallel

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/schedule"
)

// The dense slot table of Arena and SharedArena is checked here against
// a model with the semantics of the coordinate-keyed map index it
// replaced: residency, packed contents, error class and Drain's merge
// set must agree after every step of a long random op sequence, over a
// binding with ragged edge tiles, an unbound operand and lines outside
// the bound ones.

// modelTile is one resident tile of the model.
type modelTile struct {
	data  []float64
	dirty bool
}

// arenaModel is a map-indexed arena: the reference the slot table must
// reproduce.
type arenaModel struct {
	capacity, blockLen int
	res                map[schedule.Line]*modelTile
}

func newArenaModel(capacity, q int) *arenaModel {
	return &arenaModel{capacity: capacity, blockLen: q * q, res: make(map[schedule.Line]*modelTile)}
}

// alloc is the model's staging discipline, checked in the old order:
// resident, then full, then oversized.
func (m *arenaModel) alloc(l schedule.Line, data []float64) string {
	if _, ok := m.res[l]; ok {
		return "resident"
	}
	if len(m.res) == m.capacity {
		return "full"
	}
	if len(data) > m.blockLen {
		return "oversize"
	}
	m.res[l] = &modelTile{data: append([]float64(nil), data...)}
	return ""
}

// errClass maps an arena or binding error to its discipline class.
func errClass(err error) string {
	if err == nil {
		return ""
	}
	msg := err.Error()
	for _, c := range []struct{ sub, class string }{
		{"stage of resident", "resident"},
		{"full (capacity", "full"},
		{"non-resident", "non-resident"},
		{"not resident", "non-resident"},
		{"out of range", "range"},
		{"unbound operand", "range"},
		{"outside the binding", "range"},
		{"over a", "shape"},
		{"exceeds", "oversize"},
	} {
		if strings.Contains(msg, c.sub) {
			return c.class
		}
	}
	return "other: " + msg
}

// oracleWorld is the system under test beside its model: one core
// arena, one shared arena, the operand binding as memory, and the
// model's copy of that memory.
type oracleWorld struct {
	t      *testing.T
	rng    *rand.Rand
	tiles  *matrix.Operands
	pool   []schedule.Line // in-range and out-of-range lines
	core   *Arena
	shared *SharedArena
	mCore  *arenaModel
	mSh    *arenaModel
	memory map[schedule.Line][]float64
	seen   map[string]int // error classes the sequence produced
}

func newOracleWorld(t *testing.T, seed int64) *oracleWorld {
	const q = 3
	// A is 7×10 and C 10×7 in coefficients: 3×4 and 4×3 tiles with
	// ragged right and bottom edges. B stays unbound.
	ab, err := matrix.NewBlocked(matrix.MatA, matrix.Random(7, 10, uint64(seed)), q)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := matrix.NewBlocked(matrix.MatC, matrix.Random(10, 7, uint64(seed)+1), q)
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := matrix.NewOperands(ab, cb)
	if err != nil {
		t.Fatal(err)
	}
	w := &oracleWorld{
		t: t, rng: rand.New(rand.NewSource(seed)), tiles: tiles,
		mCore: newArenaModel(4, q), mSh: newArenaModel(6, q),
		memory: make(map[schedule.Line][]float64), seen: make(map[string]int),
	}
	if w.core, err = NewArena(4, tiles); err != nil {
		t.Fatal(err)
	}
	if w.shared, err = NewSharedArena(6, tiles); err != nil {
		t.Fatal(err)
	}
	for _, b := range []*matrix.Blocked{ab, cb} {
		for i := 0; i < b.BlockRows(); i++ {
			for j := 0; j < b.BlockCols(); j++ {
				l := b.Coord(i, j)
				w.pool = append(w.pool, l)
				w.memory[l] = b.Block(i, j).Clone().Data()
			}
		}
	}
	w.pool = append(w.pool,
		schedule.LineA(3, 0), schedule.LineA(0, 4), schedule.LineC(-1, 0), // past the edges
		schedule.LineB(0, 0), schedule.LineB(1, 2), // unbound operand
	)
	return w
}

func (w *oracleWorld) pick() schedule.Line { return w.pool[w.rng.Intn(len(w.pool))] }

// image is a random rows×cols packed tile.
func (w *oracleWorld) image(rows, cols int) []float64 {
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = float64(w.rng.Intn(100))
	}
	return data
}

// resolve returns l's tile id, or the class of its resolution error.
func (w *oracleWorld) resolve(l schedule.Line) (matrix.TileID, string) {
	id, err := w.tiles.TileID(l)
	return id, errClass(err)
}

// expect compares an operation's outcome with the model's.
func (w *oracleWorld) expect(step int, op string, l schedule.Line, got error, want string) {
	w.t.Helper()
	w.seen[want]++
	if errClass(got) != want {
		w.t.Fatalf("step %d: %s %v: error %v (class %q), model wants class %q", step, op, l, got, errClass(got), want)
	}
}

// step applies one random operation to both sides.
func (w *oracleWorld) step(step int) {
	l := w.pick()
	id, rerr := w.resolve(l)
	op := w.rng.Intn(13)
	if rerr != "" {
		// A line outside the binding has no id: every operation on it
		// fails at resolution, before any arena is touched, exactly
		// where the old executor's tile lookup failed.
		if rerr != "range" {
			w.t.Fatalf("step %d: resolving %v failed with class %q, want a range error", step, l, rerr)
		}
		if op%2 == 0 {
			// Ids outside the binding are refused by the arenas too.
			bogus := matrix.TileID(w.tiles.Tiles() + w.rng.Intn(3))
			if w.rng.Intn(2) == 0 {
				bogus = -1 - bogus
			}
			_, err := w.core.Stage(bogus)
			w.expect(step, "core stage of a bogus id", l, err, "range")
			_, _, err = w.shared.Unstage(bogus)
			w.expect(step, "shared unstage of a bogus id", l, err, "range")
		}
		return
	}
	switch op {
	case 0: // core Stage from memory (ModePacked)
		_, err := w.core.Stage(id)
		w.expect(step, "core stage", l, err, w.mCore.alloc(l, w.memory[l]))
	case 1, 2: // shared Stage from memory
		_, err := w.shared.Stage(id)
		w.expect(step, "shared stage", l, err, w.mSh.alloc(l, w.memory[l]))
	case 3, 4: // Refill core from shared
		_, err := w.shared.Refill(w.core, id)
		want := "non-resident"
		if st, ok := w.mSh.res[l]; ok {
			want = w.mCore.alloc(l, st.data)
		}
		w.expect(step, "refill", l, err, want)
	case 5: // stagePacked of the tile's image, or an oversized one
		rows, cols := w.tiles.TileShape(id)
		if w.rng.Intn(4) == 0 {
			rows, cols = 4, 3
		}
		data := w.image(rows, cols)
		err := w.core.stagePacked(id, rows, cols, data)
		w.expect(step, "stagePacked", l, err, w.mCore.alloc(l, data))
	case 12: // a core's write-back of a random-shaped image
		rows, cols := 1+w.rng.Intn(3), 1+w.rng.Intn(3)
		data := w.image(rows, cols)
		err := w.shared.Absorb(id, rows, cols, data)
		want := "non-resident"
		if st, ok := w.mSh.res[l]; ok && len(st.data) != len(data) {
			want = "shape"
		} else if ok {
			rr, rc := w.tiles.TileShape(id)
			if rr != rows || rc != cols {
				want = "shape"
			} else {
				want = ""
				copy(st.data, data)
				st.dirty = true
			}
		}
		w.expect(step, "absorb", l, err, want)
	case 6: // a kernel writes a core tile
		slot := w.core.tile(id)
		mt, ok := w.mCore.res[l]
		if (slot != nil) != ok {
			w.t.Fatalf("step %d: core residency of %v: arena %v, model %v", step, l, slot != nil, ok)
		}
		if ok {
			slot.data[0]++
			slot.dirty = true
			mt.data[0]++
			mt.dirty = true
		}
	case 7: // core release, dirty tiles merging into the shared copy (ModeShared)
		rows, cols, data, dirty, err := w.core.release(id)
		mt, ok := w.mCore.res[l]
		if !ok {
			w.expect(step, "core release", l, err, "non-resident")
			return
		}
		w.expect(step, "core release", l, err, "")
		delete(w.mCore.res, l)
		if dirty != mt.dirty {
			w.t.Fatalf("step %d: release %v dirty=%v, model %v", step, l, dirty, mt.dirty)
		}
		if dirty {
			err := w.shared.Absorb(id, rows, cols, data)
			want := "non-resident"
			if st, ok := w.mSh.res[l]; ok {
				want = ""
				copy(st.data, mt.data)
				st.dirty = true
			}
			w.expect(step, "absorb", l, err, want)
		}
	case 8: // core Unstage to memory (ModePacked)
		_, _, err := w.core.Unstage(id)
		w.expect(step, "core unstage", l, err, w.mCore.unstage(l, w.memory))
	case 9: // shared Unstage to memory
		_, _, err := w.shared.Unstage(id)
		w.expect(step, "shared unstage", l, err, w.mSh.unstage(l, w.memory))
	case 10: // end-of-run drains, top-down, both merging into memory
		if w.rng.Intn(4) != 0 {
			return
		}
		toMemory := func(merged *[]schedule.Line) func(matrix.TileID, int, int, []float64) error {
			return func(id matrix.TileID, rows, cols int, data []float64) error {
				*merged = append(*merged, w.tiles.Coord(id))
				return w.tiles.UnpackTile(id, data)
			}
		}
		modelToMemory := func(l schedule.Line, mt *modelTile) { copy(w.memory[l], mt.data) }
		for _, lv := range []struct {
			name  string
			drain func(func(matrix.TileID, int, int, []float64) error) (int, error)
			m     *arenaModel
		}{{"core", w.core.Drain, w.mCore}, {"shared", w.shared.Drain, w.mSh}} {
			var got []schedule.Line
			n, err := lv.drain(toMemory(&got))
			if err != nil {
				w.t.Fatalf("step %d: %s drain: %v", step, lv.name, err)
			}
			want := lv.m.drain(modelToMemory)
			if n != len(got) || !sameLines(got, want) {
				w.t.Fatalf("step %d: %s drain merged %v (n=%d), model %v", step, lv.name, got, n, want)
			}
		}
	case 11: // failure path: Discard one level
		if w.rng.Intn(6) != 0 {
			return
		}
		if w.rng.Intn(2) == 0 {
			w.core.Discard()
			w.mCore.res = make(map[schedule.Line]*modelTile)
		} else {
			w.shared.Discard()
			w.mSh.res = make(map[schedule.Line]*modelTile)
		}
	}
}

// unstage releases l, writing a dirty tile to memory.
func (m *arenaModel) unstage(l schedule.Line, memory map[schedule.Line][]float64) string {
	mt, ok := m.res[l]
	if !ok {
		return "non-resident"
	}
	if mt.dirty {
		copy(memory[l], mt.data)
	}
	delete(m.res, l)
	return ""
}

// drain empties the model, merging every dirty tile through merge, and
// returns the merged lines.
func (m *arenaModel) drain(merge func(schedule.Line, *modelTile)) []schedule.Line {
	var merged []schedule.Line
	for l, mt := range m.res {
		if mt.dirty {
			merge(l, mt)
			merged = append(merged, l)
		}
	}
	m.res = make(map[schedule.Line]*modelTile)
	return merged
}

func sameLines(a, b []schedule.Line) bool {
	key := func(s []schedule.Line) []string {
		out := make([]string, len(s))
		for i, l := range s {
			out[i] = l.String()
		}
		sort.Strings(out)
		return out
	}
	return strings.Join(key(a), " ") == strings.Join(key(b), " ")
}

// check compares residency and contents of both levels, and memory.
func (w *oracleWorld) check(step int) {
	w.t.Helper()
	if w.core.Resident() != len(w.mCore.res) || w.shared.Resident() != len(w.mSh.res) {
		w.t.Fatalf("step %d: resident core/shared %d/%d, model %d/%d",
			step, w.core.Resident(), w.shared.Resident(), len(w.mCore.res), len(w.mSh.res))
	}
	for _, l := range w.pool {
		id, rerr := w.resolve(l)
		if rerr != "" {
			continue
		}
		for _, lv := range []struct {
			name string
			slot *arenaSlot
			m    *arenaModel
		}{{"core", w.core.tile(id), w.mCore}, {"shared", w.shared.arena.tile(id), w.mSh}} {
			mt, ok := lv.m.res[l]
			if (lv.slot != nil) != ok {
				w.t.Fatalf("step %d: %s residency of %v: arena %v, model %v", step, lv.name, l, lv.slot != nil, ok)
			}
			if ok && !equalValues(lv.slot.data, mt.data) {
				w.t.Fatalf("step %d: %s copy of %v is %v, model %v", step, lv.name, l, lv.slot.data, mt.data)
			}
		}
		if w.shared.Contains(id) != (w.mSh.res[l] != nil) {
			w.t.Fatalf("step %d: shared Contains(%v) disagrees with the model", step, l)
		}
		got := tileView(w.t, w.tiles, l).Clone().Data()
		if !equalValues(got, w.memory[l]) {
			w.t.Fatalf("step %d: memory of %v is %v, model %v", step, l, got, w.memory[l])
		}
	}
}

func equalValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestArenaSlotTableMatchesMapModel(t *testing.T) {
	seen := make(map[string]int)
	for seed := int64(1); seed <= 8; seed++ {
		w := newOracleWorld(t, seed)
		for s := 0; s < 3000; s++ {
			w.step(s)
			w.check(s)
		}
		for c, n := range w.seen {
			seen[c] += n
		}
	}
	for _, c := range []string{"", "resident", "full", "non-resident", "range", "shape", "oversize"} {
		if seen[c] == 0 {
			t.Errorf("the random sequences never produced error class %q", c)
		}
	}
	t.Logf("outcomes by error class: %v", seen)
}
