package matrix

import (
	"fmt"
	"math"
)

// Operands binds the block coordinates of a schedule to concrete blocked
// matrices: one slot per MatrixID, all sharing the same tile size. It is
// the workload description of the generalized executor — a product binds
// all three slots (see Triple.Operands), a factorisation binds only the
// matrix it decomposes, and a schedule that references an unbound slot
// fails loudly at the first resolution instead of aliasing to a wrong
// matrix.
//
// A binding also numbers its tiles densely: TileID runs over
// [0, Tiles()), row-major within each bound matrix, matrix after matrix
// in MatrixID order. The executor resolves every coordinate to its id
// once and indexes arrays by id from then on.
type Operands struct {
	mats  [numMatrices]*Blocked
	base  [numMatrices]TileID // first id of each bound matrix
	tiles int
	q     int
}

// TileID is the dense number of one tile of an operand binding (see
// Operands). It is 4 bytes where a BlockCoord is 24, and it indexes
// arrays where a coordinate needs a hash.
type TileID int32

// NewOperands binds the given blocked matrices, keyed by their IDs. At
// least one operand is required; duplicate IDs and mismatched tile sizes
// are rejected.
func NewOperands(ms ...*Blocked) (*Operands, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("matrix: operand binding needs at least one matrix")
	}
	o := &Operands{q: ms[0].Q}
	for _, b := range ms {
		if b == nil {
			return nil, fmt.Errorf("matrix: nil operand in binding")
		}
		if b.ID >= numMatrices {
			return nil, fmt.Errorf("matrix: operand with unknown id %v", b.ID)
		}
		if o.mats[b.ID] != nil {
			return nil, fmt.Errorf("matrix: duplicate operand %v in binding", b.ID)
		}
		if b.Q != o.q {
			return nil, fmt.Errorf("matrix: operand %v has tile size %d, binding uses %d", b.ID, b.Q, o.q)
		}
		o.mats[b.ID] = b
	}
	for id, b := range o.mats {
		o.base[id] = TileID(o.tiles)
		if b != nil {
			o.tiles += b.Blocks()
		}
	}
	if o.tiles > math.MaxInt32 {
		return nil, fmt.Errorf("matrix: operand binding has %d tiles, more than a TileID can number", o.tiles)
	}
	return o, nil
}

// Q returns the common tile size of the bound operands.
func (o *Operands) Q() int { return o.q }

// Tiles returns the number of tiles the binding numbers.
func (o *Operands) Tiles() int { return o.tiles }

// Has reports whether the slot for id is bound.
func (o *Operands) Has(id MatrixID) bool {
	return id < numMatrices && o.mats[id] != nil
}

// Get returns the blocked matrix bound to id, or nil if the slot is
// unbound.
func (o *Operands) Get(id MatrixID) *Blocked {
	if id >= numMatrices {
		return nil
	}
	return o.mats[id]
}

// TileID resolves a block coordinate to its dense id. Referencing an
// unbound operand or an out-of-range block is an error — a schedule
// touching data its workload does not declare is a bug, the executor's
// analogue of the IDEAL cache's non-resident reference.
func (o *Operands) TileID(l BlockCoord) (TileID, error) {
	if l.Matrix >= numMatrices || o.mats[l.Matrix] == nil {
		return 0, fmt.Errorf("matrix: schedule references unbound operand %v", l)
	}
	b := o.mats[l.Matrix]
	if l.Row < 0 || l.Row >= b.brows || l.Col < 0 || l.Col >= b.bcols {
		return 0, fmt.Errorf("matrix: block %v out of range %dx%d", l, b.brows, b.bcols)
	}
	return o.base[l.Matrix] + TileID(l.Row*b.bcols+l.Col), nil
}

// locate returns the matrix holding tile id and the id's block row and
// column in it. id must lie in [0, Tiles()).
func (o *Operands) locate(id TileID) (b *Blocked, bi, bj int) {
	if id < 0 || int(id) >= o.tiles {
		panic(fmt.Sprintf("matrix: tile id %d out of range [0, %d)", id, o.tiles))
	}
	m := numMatrices - 1
	for o.mats[m] == nil || id < o.base[m] {
		m--
	}
	b = o.mats[m]
	k := int(id - o.base[m])
	return b, k / b.bcols, k % b.bcols
}

// Coord maps a dense id back to its block coordinate. id must lie in
// [0, Tiles()).
func (o *Operands) Coord(id TileID) BlockCoord {
	b, bi, bj := o.locate(id)
	return b.Coord(bi, bj)
}

// Block resolves a block coordinate to its tile view (see TileID for the
// errors).
func (o *Operands) Block(l BlockCoord) (*Dense, error) {
	if _, err := o.TileID(l); err != nil {
		return nil, err
	}
	return o.mats[l.Matrix].Block(l.Row, l.Col), nil
}

// TileShape returns the dimensions of tile id: q×q, or smaller on a
// ragged right or bottom edge.
func (o *Operands) TileShape(id TileID) (rows, cols int) {
	b, bi, bj := o.locate(id)
	return b.tileShape(bi, bj)
}

// PackTile copies tile id into dst as a contiguous row-major image, as
// Pack does for a tile view, without building the view. dst must hold
// TileShape(id)'s rows·cols values; the count is returned.
//
//repro:kernel
func (o *Operands) PackTile(dst []float64, id TileID) (int, error) {
	b, bi, bj := o.locate(id)
	rows, cols := b.tileShape(bi, bj)
	if len(dst) < rows*cols {
		return 0, fmt.Errorf("matrix: pack %dx%d tile %v into %d-value buffer: %w",
			rows, cols, b.Coord(bi, bj), len(dst), ErrShape)
	}
	d := b.dense
	off := bi*b.Q*d.stride + bj*b.Q
	for i := 0; i < rows; i++ {
		copy(dst[i*cols:(i+1)*cols], d.data[off+i*d.stride:off+i*d.stride+cols])
	}
	return rows * cols, nil
}

// UnpackTile copies a contiguous row-major image out of src into tile
// id of its operand matrix — Unpack without the view. src must hold
// TileShape(id)'s rows·cols values.
//
//repro:kernel
func (o *Operands) UnpackTile(id TileID, src []float64) error {
	b, bi, bj := o.locate(id)
	rows, cols := b.tileShape(bi, bj)
	if len(src) < rows*cols {
		return fmt.Errorf("matrix: unpack %d-value buffer into %dx%d tile %v: %w",
			len(src), rows, cols, b.Coord(bi, bj), ErrShape)
	}
	d := b.dense
	off := bi*b.Q*d.stride + bj*b.Q
	for i := 0; i < rows; i++ {
		copy(d.data[off+i*d.stride:off+i*d.stride+cols], src[i*cols:(i+1)*cols])
	}
	return nil
}
