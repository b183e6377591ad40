package parallel

import (
	"fmt"

	"repro/internal/matrix"
)

// Arena is one core's staging buffer: the physical realisation of the
// paper's distributed cache. It holds up to capBlocks packed q×q tiles
// in one contiguous allocation. Stage copies a tile of the operand
// matrices into a free slot (the paper's "load into the distributed
// cache of core c"), computes run on the packed copies, and Unstage
// writes dirty tiles back and frees the slot. The discipline is exactly
// as strict as the IDEAL cache's: staging a resident tile, overflowing
// the capacity, or unstaging a non-resident tile is an error — the
// executor's memory traffic is literally the stream the simulator
// counts.
//
// Tiles are addressed by their dense id in the operand binding
// (matrix.TileID). The residency index is a slot table with one entry
// per operand tile, so every lookup on the replay path is an array
// load: 4 bytes per operand tile, at most 1/(2q²) of the operand bytes.
//
// An Arena is owned by a single worker goroutine; it needs no locking.
// The same slot machinery backs the team-wide SharedArena, whose
// concurrency rules are its own (see shared.go).
type Arena struct {
	level    string // "core arena" or "shared arena", for error messages
	blockLen int    // q·q values per slot
	tiles    *matrix.Operands
	buf      []float64
	slots    []arenaSlot
	index    []int32 // tile id → slot index + 1; 0 when not resident
	free     []int32
	resident int

	// verify arms the integrity tripwire (Executor.SetIntegrityChecks):
	// staging records a checksum of the packed copy, release re-verifies
	// it. Clean slots only by default — kernels legitimately mutate dirty
	// tiles — unless verifyDirty is also set, which the shared arena does
	// because Absorb recomputes the sum on every legitimate write.
	verify      bool
	verifyDirty bool
}

type arenaSlot struct {
	id         matrix.TileID
	rows, cols int
	held       bool // resident: index[id] points here
	dirty      bool
	sum        uint64        // checksum of data at last stage/absorb (verify mode)
	data       []float64     // slice of buf, len rows·cols while resident
	hdr        *matrix.Dense // compact header over data, rebuilt only when the shape changes
}

// NewArena allocates a staging buffer of capBlocks tiles for the
// operand binding tiles (q×q values each, q the binding's tile size).
func NewArena(capBlocks int, tiles *matrix.Operands) (*Arena, error) {
	return newArena(capBlocks, tiles, "core arena")
}

func newArena(capBlocks int, tiles *matrix.Operands, level string) (*Arena, error) {
	if tiles == nil {
		return nil, fmt.Errorf("parallel: %s needs an operand binding", level)
	}
	q := tiles.Q()
	if capBlocks <= 0 || q <= 0 {
		return nil, fmt.Errorf("parallel: %s needs positive capacity and block edge, got %d blocks of %dx%d",
			level, capBlocks, q, q)
	}
	a := &Arena{
		level:    level,
		blockLen: q * q,
		tiles:    tiles,
		buf:      make([]float64, capBlocks*q*q),
		slots:    make([]arenaSlot, capBlocks),
		index:    make([]int32, tiles.Tiles()),
		free:     make([]int32, 0, capBlocks),
	}
	for i := capBlocks - 1; i >= 0; i-- {
		a.free = append(a.free, int32(i))
	}
	return a, nil
}

// Capacity returns the number of tile slots.
func (a *Arena) Capacity() int { return len(a.slots) }

// Resident returns the number of currently staged tiles.
func (a *Arena) Resident() int { return a.resident }

// inRange reports whether id numbers a tile of the arena's binding.
func (a *Arena) inRange(id matrix.TileID) bool { return uint32(id) < uint32(len(a.index)) }

// outOfRange is the error of an id outside the binding.
func (a *Arena) outOfRange(id matrix.TileID) error {
	return fmt.Errorf("parallel: %s: tile id %d outside the binding's %d tiles", a.level, id, len(a.index))
}

// alloc claims a free slot for a rows×cols tile under id, enforcing the
// staging discipline (no re-stage of a resident tile, no overflow, no
// oversized tile). The caller fills the returned slot's data.
func (a *Arena) alloc(id matrix.TileID, rows, cols int) (*arenaSlot, error) {
	if !a.inRange(id) {
		return nil, a.outOfRange(id)
	}
	if a.index[id] != 0 {
		return nil, fmt.Errorf("parallel: %s stage of resident block %v", a.level, a.tiles.Coord(id))
	}
	if len(a.free) == 0 {
		return nil, fmt.Errorf("parallel: %s full (capacity %d blocks) staging %v", a.level, len(a.slots), a.tiles.Coord(id))
	}
	if rows*cols > a.blockLen {
		return nil, fmt.Errorf("parallel: %dx%d tile %v exceeds the %s's %d-value slots",
			rows, cols, a.tiles.Coord(id), a.level, a.blockLen)
	}
	i := a.free[len(a.free)-1]
	slot := &a.slots[i]
	off := int(i) * a.blockLen
	slot.data = a.buf[off : off+rows*cols]
	slot.id = id
	slot.rows = rows
	slot.cols = cols
	slot.held = true
	slot.dirty = false
	// The header lets the kernels run on arena-resident tiles without
	// per-application wrapping. Same shape, same backing: it is reused
	// until a ragged edge tile lands in the slot.
	if slot.hdr == nil || slot.hdr.Rows() != rows || slot.hdr.Cols() != cols {
		hdr, err := matrix.NewFromSlice(rows, cols, slot.data)
		if err != nil {
			return nil, err
		}
		slot.hdr = hdr
	}
	a.free = a.free[:len(a.free)-1]
	a.index[id] = i + 1
	a.resident++
	return slot, nil
}

// Stage packs operand tile id into a free slot. Mirroring the IDEAL
// cache, staging a resident tile or staging into a full arena is an
// error (it indicates a bug in the schedule's staging discipline). The
// tile's value count is returned for traffic accounting.
func (a *Arena) Stage(id matrix.TileID) (values int, err error) {
	slot, err := a.allocTile(id)
	if err != nil {
		return 0, err
	}
	return a.fill(slot)
}

// allocTile claims a slot for operand tile id at its shape in the
// binding.
func (a *Arena) allocTile(id matrix.TileID) (*arenaSlot, error) {
	if !a.inRange(id) {
		return nil, a.outOfRange(id)
	}
	rows, cols := a.tiles.TileShape(id)
	return a.alloc(id, rows, cols)
}

// fill packs the operand tile of a freshly allocated slot, records its
// checksum under the verify policy and returns its value count.
func (a *Arena) fill(slot *arenaSlot) (int, error) {
	values, err := a.tiles.PackTile(slot.data, slot.id)
	if err != nil {
		return 0, err
	}
	if a.verify {
		slot.sum = checksum(slot.data)
	}
	return values, nil
}

// stagePacked stages an already-packed rows×cols image under id — the
// intra-chip copy a core arena makes when refilling from the shared
// arena. Discipline is identical to Stage's.
func (a *Arena) stagePacked(id matrix.TileID, rows, cols int, src []float64) error {
	slot, err := a.alloc(id, rows, cols)
	if err != nil {
		return err
	}
	copy(slot.data, src[:rows*cols])
	if a.verify {
		slot.sum = checksum(slot.data)
	}
	return nil
}

// release frees the slot holding id and hands its packed contents to
// the caller, which decides where a dirty tile merges (operand matrices
// in ModePacked, the shared arena in ModeShared). The returned data
// slice stays valid until the slot is staged again. Releasing a
// non-resident tile is an error, exactly as evicting one is under IDEAL.
func (a *Arena) release(id matrix.TileID) (rows, cols int, data []float64, dirty bool, err error) {
	slot := a.tile(id)
	if slot == nil {
		if !a.inRange(id) {
			return 0, 0, nil, false, a.outOfRange(id)
		}
		return 0, 0, nil, false, fmt.Errorf("parallel: %s unstage of non-resident block %v", a.level, a.tiles.Coord(id))
	}
	if err := a.check(slot); err != nil {
		return 0, 0, nil, false, err
	}
	a.evict(slot)
	return slot.rows, slot.cols, slot.data, slot.dirty, nil
}

// evict returns a resident slot to the free list.
func (a *Arena) evict(slot *arenaSlot) {
	i := a.index[slot.id]
	a.index[slot.id] = 0
	slot.held = false
	a.free = append(a.free, i-1)
	a.resident--
}

// check re-verifies a resident slot's checksum under the verify policy
// (see the Arena verify fields). A mismatch means the packed copy was
// modified outside any legitimate write — injected corruption, a stray
// store — and fails with ErrIntegrity.
func (a *Arena) check(slot *arenaSlot) error {
	if !a.verify || (slot.dirty && !a.verifyDirty) {
		return nil
	}
	if checksum(slot.data) != slot.sum {
		return fmt.Errorf("%w: %s copy of %v changed while resident", ErrIntegrity, a.level, a.tiles.Coord(slot.id))
	}
	return nil
}

// Unstage frees the slot holding id, writing the packed tile back into
// its operand matrix first if it is dirty. It reports the tile's value
// count and whether a write-back happened.
func (a *Arena) Unstage(id matrix.TileID) (values int, dirty bool, err error) {
	_, _, data, dirty, err := a.release(id)
	if err != nil {
		return 0, false, err
	}
	if dirty {
		if err := a.tiles.UnpackTile(id, data); err != nil {
			return 0, false, err
		}
	}
	return len(data), dirty, nil
}

// tile returns the slot holding id, or nil if id is not staged (or not
// a tile of the binding at all).
func (a *Arena) tile(id matrix.TileID) *arenaSlot {
	if !a.inRange(id) {
		return nil
	}
	if i := a.index[id]; i != 0 {
		return &a.slots[i-1]
	}
	return nil
}

// Drain empties the arena, invoking merge for every dirty resident tile
// and returning how many tiles were merged. It is the executor's
// end-of-program safety net, mirroring the simulated hierarchy's Flush:
// schedules are expected to unstage everything themselves, so a
// non-empty drain usually indicates a sloppy schedule rather than an
// error. Where a dirty tile merges depends on the level: core arenas
// merge upward into the shared arena (ModeShared) or the operand
// matrices (ModePacked), the shared arena into the matrices. Tiles
// merge in slot order.
func (a *Arena) Drain(merge func(id matrix.TileID, rows, cols int, data []float64) error) (int, error) {
	var merged int
	for i := range a.slots {
		slot := &a.slots[i]
		if !slot.held {
			continue
		}
		if slot.dirty {
			if err := merge(slot.id, slot.rows, slot.cols, slot.data); err != nil {
				return merged, err
			}
			merged++
		}
		a.evict(slot)
	}
	return merged, nil
}

// Discard drops every resident tile without merging and zeroes the
// backing buffer — the failure-path counterpart of Drain, used by
// Executor.Reset. After a failed or cancelled run the arena's contents
// are suspect (a worker may have died mid-kernel, injected corruption
// may sit in a slot), so nothing is written back and nothing survives
// into the next run.
func (a *Arena) Discard() {
	for i := range a.slots {
		if slot := &a.slots[i]; slot.held {
			a.evict(slot)
		}
	}
	for i := range a.buf {
		a.buf[i] = 0
	}
}
