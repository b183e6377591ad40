package matrix

import "fmt"

// MatrixID identifies which of the three operand matrices a block belongs
// to. The cache simulator keys its lines on (MatrixID, block row, block
// column), exactly matching the paper's block-granularity model.
type MatrixID uint8

// Operand matrices of the product C = A×B.
const (
	MatA MatrixID = iota
	MatB
	MatC
	numMatrices
)

// String returns "A", "B" or "C".
func (id MatrixID) String() string {
	switch id {
	case MatA:
		return "A"
	case MatB:
		return "B"
	case MatC:
		return "C"
	default:
		return fmt.Sprintf("MatrixID(%d)", uint8(id))
	}
}

// BlockCoord addresses one q×q block inside one operand matrix. It is the
// cache-line identifier of the whole simulation stack.
type BlockCoord struct {
	Matrix MatrixID
	Row    int // block row index
	Col    int // block column index
}

// String renders a coordinate as e.g. "C[3,7]".
func (b BlockCoord) String() string {
	return fmt.Sprintf("%s[%d,%d]", b.Matrix, b.Row, b.Col)
}

// Blocked partitions a Dense matrix into q×q tiles. Ragged right/bottom
// edges are allowed: edge tiles are smaller than q. Block coordinates run
// over ceil(rows/q) × ceil(cols/q).
type Blocked struct {
	ID    MatrixID
	Q     int
	dense *Dense
	brows int
	bcols int
}

// NewBlocked wraps m as a blocked matrix with tile size q.
func NewBlocked(id MatrixID, m *Dense, q int) (*Blocked, error) {
	if q <= 0 {
		return nil, fmt.Errorf("matrix: block size q=%d must be positive", q)
	}
	return &Blocked{
		ID:    id,
		Q:     q,
		dense: m,
		brows: ceilDiv(m.Rows(), q),
		bcols: ceilDiv(m.Cols(), q),
	}, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// BlockRows returns the number of block rows.
func (b *Blocked) BlockRows() int { return b.brows }

// BlockCols returns the number of block columns.
func (b *Blocked) BlockCols() int { return b.bcols }

// Dense returns the underlying dense matrix.
func (b *Blocked) Dense() *Dense { return b.dense }

// Block returns a view of tile (bi, bj). Edge tiles may be smaller than
// q×q.
func (b *Blocked) Block(bi, bj int) *Dense {
	if bi < 0 || bi >= b.brows || bj < 0 || bj >= b.bcols {
		panic(fmt.Sprintf("matrix: block (%d,%d) out of range %dx%d", bi, bj, b.brows, b.bcols))
	}
	r, c := b.tileShape(bi, bj)
	return b.dense.View(bi*b.Q, bj*b.Q, r, c)
}

// tileShape returns the dimensions of tile (bi, bj): q×q, or smaller on
// a ragged edge.
func (b *Blocked) tileShape(bi, bj int) (rows, cols int) {
	return min(b.Q, b.dense.rows-bi*b.Q), min(b.Q, b.dense.cols-bj*b.Q)
}

// Coord returns the BlockCoord of tile (bi, bj) of this matrix.
func (b *Blocked) Coord(bi, bj int) BlockCoord {
	return BlockCoord{Matrix: b.ID, Row: bi, Col: bj}
}

// Blocks returns the total number of tiles.
func (b *Blocked) Blocks() int { return b.brows * b.bcols }

// Triple bundles the three blocked operands of one product C = A×B with a
// common tile size. It is the workload description handed both to the
// trace-generating algorithms and to the real executor.
type Triple struct {
	A, B, C *Blocked
}

// NewTriple allocates dense operands for an (m×z)·(z×n) product where
// m, n, z are expressed in *blocks* of size q (the unit used throughout
// the paper's evaluation), fills A and B deterministically from seed and
// zeroes C.
func NewTriple(mBlocks, nBlocks, zBlocks, q int, seed uint64) (*Triple, error) {
	if mBlocks <= 0 || nBlocks <= 0 || zBlocks <= 0 {
		return nil, fmt.Errorf("matrix: block dimensions must be positive, got m=%d n=%d z=%d",
			mBlocks, nBlocks, zBlocks)
	}
	if q <= 0 {
		return nil, fmt.Errorf("matrix: block size q=%d must be positive", q)
	}
	return NewTripleDims(mBlocks*q, nBlocks*q, zBlocks*q, q, seed)
}

// NewTripleDims allocates dense operands for a (rows×inner)·(inner×cols)
// product whose coefficient dimensions need not be multiples of q: the
// right/bottom edge tiles of the blocked views are ragged (smaller than
// q×q). It is the workload constructor for the n mod q ≠ 0 tests and for
// real problem sizes that do not align with the paper's block grid.
func NewTripleDims(rows, cols, inner, q int, seed uint64) (*Triple, error) {
	if rows <= 0 || cols <= 0 || inner <= 0 {
		return nil, fmt.Errorf("matrix: coefficient dimensions must be positive, got %dx%d·%dx%d",
			rows, inner, inner, cols)
	}
	ab, err := NewBlocked(MatA, Random(rows, inner, seed), q)
	if err != nil {
		return nil, err
	}
	bb, err := NewBlocked(MatB, Random(inner, cols, seed+1), q)
	if err != nil {
		return nil, err
	}
	cb, err := NewBlocked(MatC, New(rows, cols), q)
	if err != nil {
		return nil, err
	}
	return &Triple{A: ab, B: bb, C: cb}, nil
}

// Operands returns the three blocked matrices of the product as an
// executor operand binding. Validate first: a conformable triple always
// binds.
func (t *Triple) Operands() (*Operands, error) {
	return NewOperands(t.A, t.B, t.C)
}

// Dims returns the block dimensions (m, n, z) of the product.
func (t *Triple) Dims() (m, n, z int) {
	return t.C.BlockRows(), t.C.BlockCols(), t.A.BlockCols()
}

// Validate checks that the three operands are conformable: A is m×z, B is
// z×n and C is m×n in blocks, all with the same tile size.
func (t *Triple) Validate() error {
	if t.A.Q != t.B.Q || t.A.Q != t.C.Q {
		return fmt.Errorf("matrix: mismatched tile sizes %d/%d/%d", t.A.Q, t.B.Q, t.C.Q)
	}
	if t.A.BlockRows() != t.C.BlockRows() {
		return fmt.Errorf("matrix: A has %d block rows, C has %d: %w",
			t.A.BlockRows(), t.C.BlockRows(), ErrShape)
	}
	if t.B.BlockCols() != t.C.BlockCols() {
		return fmt.Errorf("matrix: B has %d block cols, C has %d: %w",
			t.B.BlockCols(), t.C.BlockCols(), ErrShape)
	}
	if t.A.BlockCols() != t.B.BlockRows() {
		return fmt.Errorf("matrix: A has %d block cols, B has %d block rows: %w",
			t.A.BlockCols(), t.B.BlockRows(), ErrShape)
	}
	return nil
}
