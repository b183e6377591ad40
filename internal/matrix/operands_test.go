package matrix

import (
	"errors"
	"strings"
	"testing"
)

// raggedBinding binds A (7×10) and C (10×5) at q=3 — ragged right and
// bottom edges in both — leaving B unbound.
func raggedBinding(t *testing.T) *Operands {
	t.Helper()
	a, err := NewBlocked(MatA, Random(7, 10, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewBlocked(MatC, Random(10, 5, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOperands(c, a) // binding order does not change the numbering
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// Tile ids number the bound tiles densely, row-major within each
// matrix, matrix after matrix in MatrixID order, and Coord inverts the
// numbering.
func TestOperandsTileNumbering(t *testing.T) {
	o := raggedBinding(t)
	a, c := o.Get(MatA), o.Get(MatC)
	if o.Tiles() != a.Blocks()+c.Blocks() || o.Tiles() != 3*4+4*2 {
		t.Fatalf("Tiles = %d, want %d", o.Tiles(), 3*4+4*2)
	}
	next := TileID(0)
	for _, b := range []*Blocked{a, c} {
		for i := 0; i < b.BlockRows(); i++ {
			for j := 0; j < b.BlockCols(); j++ {
				l := b.Coord(i, j)
				id, err := o.TileID(l)
				if err != nil {
					t.Fatal(err)
				}
				if id != next {
					t.Fatalf("TileID(%v) = %d, want %d", l, id, next)
				}
				if got := o.Coord(id); got != l {
					t.Fatalf("Coord(%d) = %v, want %v", id, got, l)
				}
				rows, cols := o.TileShape(id)
				if v := b.Block(i, j); rows != v.Rows() || cols != v.Cols() {
					t.Fatalf("TileShape(%v) = %dx%d, want %dx%d", l, rows, cols, v.Rows(), v.Cols())
				}
				next++
			}
		}
	}
	for _, tc := range []struct {
		l    BlockCoord
		want string
	}{
		{BlockCoord{Matrix: MatB}, "unbound"},
		{BlockCoord{Matrix: numMatrices}, "unbound"},
		{BlockCoord{Matrix: MatA, Row: 3}, "out of range"},
		{BlockCoord{Matrix: MatA, Col: -1}, "out of range"},
		{BlockCoord{Matrix: MatC, Row: 1, Col: 2}, "out of range"},
	} {
		if _, err := o.TileID(tc.l); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("TileID(%v) = %v, want an error containing %q", tc.l, err, tc.want)
		}
		if _, err := o.Block(tc.l); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Block(%v) = %v, want an error containing %q", tc.l, err, tc.want)
		}
	}
}

// PackTile and UnpackTile move exactly what Pack and Unpack move
// through the tile's view, edge tiles included.
func TestOperandsPackTileMatchesPack(t *testing.T) {
	o := raggedBinding(t)
	for id := TileID(0); int(id) < o.Tiles(); id++ {
		view, err := o.Block(o.Coord(id))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, 9)
		n, err := Pack(want, view)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, 9)
		if m, err := o.PackTile(got, id); err != nil || m != n {
			t.Fatalf("PackTile(%d) = %d, %v; want %d values", id, m, err, n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("PackTile(%d)[%d] = %g, want %g", id, i, got[i], want[i])
			}
		}
		for i := range got[:n] {
			got[i] = -got[i]
		}
		if err := o.UnpackTile(id, got[:n]); err != nil {
			t.Fatal(err)
		}
		if view.At(0, 0) != -want[0] || view.At(view.Rows()-1, view.Cols()-1) != -want[n-1] {
			t.Fatalf("UnpackTile(%d) did not write the tile back", id)
		}
		if _, err := o.PackTile(got[:n-1], id); !errors.Is(err, ErrShape) {
			t.Fatalf("PackTile into a short buffer: %v, want ErrShape", err)
		}
		if err := o.UnpackTile(id, got[:n-1]); !errors.Is(err, ErrShape) {
			t.Fatalf("UnpackTile from a short buffer: %v, want ErrShape", err)
		}
	}
}

// The tile kernels' neighbours allocate nothing per transfer.
func TestOperandsPackTileAllocationFree(t *testing.T) {
	o := raggedBinding(t)
	buf := make([]float64, 9)
	allocs := testing.AllocsPerRun(10, func() {
		for id := TileID(0); int(id) < o.Tiles(); id++ {
			n, _ := o.PackTile(buf, id)
			_ = o.UnpackTile(id, buf[:n])
		}
	})
	if allocs != 0 {
		t.Fatalf("PackTile/UnpackTile allocate %g objects per pass, want 0", allocs)
	}
}
