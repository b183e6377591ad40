package matrix

import (
	"errors"
	"fmt"
	"testing"
)

// Reference kernels the shape family is pinned against. MulAdd is its
// own reference; MulSub's is the plain i-k-j subtract loop the old
// MulSubUnrolled implemented; FactorTile and the Trsm solves are the
// plain loops in factor.go. Pinning is bitwise: MaxAbsDiff must be
// exactly zero, not small.

func mulSubRef(c, a, b *Dense) error {
	if err := checkMul(c, a, b); err != nil {
		return err
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.stride : i*a.stride+a.cols]
		crow := c.data[i*c.stride : i*c.stride+b.cols]
		for k, av := range arow {
			brow := b.data[k*b.stride : k*b.stride+b.cols]
			for j, bv := range brow {
				crow[j] -= av * bv
			}
		}
	}
	return nil
}

// mulDims covers full blocks, every mr/nr remainder class of the 4-
// and 8-row kernels, and degenerate edges.
var mulDims = [][3]int{
	{16, 16, 16}, {8, 8, 8}, {4, 4, 4},
	{13, 7, 11}, {9, 5, 3}, {7, 9, 2}, {17, 13, 5},
	{1, 1, 1}, {3, 3, 3}, {8, 3, 8}, {3, 8, 8}, {11, 12, 1},
}

func randomDense(t *testing.T, rows, cols int, seed uint64) *Dense {
	t.Helper()
	return Random(rows, cols, seed)
}

func TestKernelShapesMulBitwise(t *testing.T) {
	for _, shape := range Shapes() {
		kc := KernelConfig{Shape: shape}
		for _, dims := range mulDims {
			m, n, k := dims[0], dims[1], dims[2]
			a := randomDense(t, m, k, 11)
			b := randomDense(t, k, n, 23)
			want := randomDense(t, m, n, 37)
			got := want.Clone()
			if err := MulAdd(want, a, b); err != nil {
				t.Fatal(err)
			}
			if err := kc.MulAdd(got, a, b); err != nil {
				t.Fatal(err)
			}
			if d := got.MaxAbsDiff(want); d != 0 {
				t.Fatalf("shape %v MulAdd %v deviates from reference by %g", shape, dims, d)
			}
			want = randomDense(t, m, n, 41)
			got = want.Clone()
			if err := mulSubRef(want, a, b); err != nil {
				t.Fatal(err)
			}
			if err := kc.MulSub(got, a, b); err != nil {
				t.Fatal(err)
			}
			if d := got.MaxAbsDiff(want); d != 0 {
				t.Fatalf("shape %v MulSub %v deviates from reference by %g", shape, dims, d)
			}
		}
	}
}

// The shape family must stay pinned on strided views too — the
// executor's ModeView runs kernels over views, and a stride bug would
// hide on contiguous operands.
func TestKernelShapesMulBitwiseOnViews(t *testing.T) {
	big := randomDense(t, 40, 40, 5)
	a := big.View(1, 2, 13, 9)
	b2 := randomDense(t, 30, 30, 7)
	b := b2.View(3, 1, 9, 11)
	for _, shape := range Shapes() {
		kc := KernelConfig{Shape: shape}
		cBase := randomDense(t, 25, 25, 9)
		cRef := cBase.Clone()
		if err := MulAdd(cRef.View(2, 2, 13, 11), a, b); err != nil {
			t.Fatal(err)
		}
		cGot := cBase.Clone()
		if err := kc.MulAdd(cGot.View(2, 2, 13, 11), a, b); err != nil {
			t.Fatal(err)
		}
		if d := cGot.MaxAbsDiff(cRef); d != 0 {
			t.Fatalf("shape %v MulAdd over views deviates by %g", shape, d)
		}
	}
}

func TestKernelShapesFactorBitwise(t *testing.T) {
	for _, shape := range Shapes() {
		kc := KernelConfig{Shape: shape}
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 32} {
			d := randomDense(t, n, n, uint64(n))
			// Diagonal dominance keeps every pivot well away from the floor.
			for i := 0; i < n; i++ {
				d.data[i*d.stride+i] += float64(2 * n)
			}
			want := d.Clone()
			if err := FactorTile(want); err != nil {
				t.Fatal(err)
			}
			got := d.Clone()
			if err := kc.FactorTile(got); err != nil {
				t.Fatal(err)
			}
			if diff := got.MaxAbsDiff(want); diff != 0 {
				t.Fatalf("shape %v FactorTile n=%d deviates from reference by %g", shape, n, diff)
			}
		}
	}
}

func TestKernelShapesFactorSingular(t *testing.T) {
	for _, shape := range Shapes() {
		kc := KernelConfig{Shape: shape}
		d := randomDense(t, 8, 8, 3)
		for i := 0; i < 8; i++ {
			d.data[i*d.stride+i] += 16
		}
		d.data[4*d.stride+4] = 0
		// Zero the rest of row/column 4 so elimination cannot refill the
		// pivot before step 4 reaches it.
		for j := 0; j < 8; j++ {
			if j != 4 {
				d.data[4*d.stride+j] = 0
				d.data[j*d.stride+4] = 0
			}
		}
		err := kc.FactorTile(d.Clone())
		if !errors.Is(err, ErrSingular) {
			t.Fatalf("shape %v: singular tile not rejected: %v", shape, err)
		}
	}
}

func TestKernelShapesTrsmBitwise(t *testing.T) {
	for _, shape := range Shapes() {
		kc := KernelConfig{Shape: shape}
		for _, n := range []int{1, 3, 4, 5, 8, 11, 16} {
			for _, rows := range []int{1, 2, 4, 5, 8, 9, 13} {
				diag := randomDense(t, n, n, uint64(10*n))
				for i := 0; i < n; i++ {
					diag.data[i*diag.stride+i] += float64(2 * n)
				}
				if err := FactorTile(diag); err != nil {
					t.Fatal(err)
				}

				bur := randomDense(t, rows, n, uint64(rows))
				want := bur.Clone()
				if err := TrsmUpperRight(diag, want); err != nil {
					t.Fatal(err)
				}
				got := bur.Clone()
				if err := kc.TrsmUpperRight(diag, got); err != nil {
					t.Fatal(err)
				}
				if d := got.MaxAbsDiff(want); d != 0 {
					t.Fatalf("shape %v TrsmUpperRight n=%d rows=%d deviates by %g", shape, n, rows, d)
				}

				bll := randomDense(t, n, rows, uint64(rows+1))
				want = bll.Clone()
				if err := TrsmLowerLeftUnit(diag, want); err != nil {
					t.Fatal(err)
				}
				got = bll.Clone()
				if err := kc.TrsmLowerLeftUnit(diag, got); err != nil {
					t.Fatal(err)
				}
				if d := got.MaxAbsDiff(want); d != 0 {
					t.Fatalf("shape %v TrsmLowerLeftUnit n=%d cols=%d deviates by %g", shape, n, rows, d)
				}
			}
		}
	}
}

func TestShapeParseRoundTrip(t *testing.T) {
	for _, shape := range Shapes() {
		got, err := ParseShape(shape.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != shape {
			t.Fatalf("round trip %v -> %q -> %v", shape, shape.String(), got)
		}
		mr, nr := shape.Dims()
		if want := fmt.Sprintf("%dx%d", mr, nr); want != shape.String() {
			t.Fatalf("shape %v dims %dx%d disagree with its name", shape, mr, nr)
		}
	}
	if _, err := ParseShape("16x16"); err == nil {
		t.Fatal("unknown shape accepted")
	}
	if DefaultKernelConfig.Shape != Shape4x4 {
		t.Fatalf("default shape %v, want the historical 4x4", DefaultKernelConfig.Shape)
	}
}

// FuzzKernelShapesVsReference drives every shape against the reference
// MulAdd/MulSub on fuzzer-chosen dimensions and seeds, with the vector
// path on and off: any deviation — even one ulp — fails.
func FuzzKernelShapesVsReference(f *testing.F) {
	f.Add(uint(16), uint(16), uint(16), uint64(1))
	f.Add(uint(13), uint(7), uint(11), uint64(2))
	f.Add(uint(9), uint(5), uint(3), uint64(3))
	f.Add(uint(8), uint(12), uint(4), uint64(4))
	f.Add(uint(1), uint(17), uint(2), uint64(5))
	// Vector-path seeds: whole 4×8 blocks, blocks with column and row
	// tails, and a single k step.
	f.Add(uint(31), uint(31), uint(31), uint64(6))
	f.Add(uint(3), uint(7), uint(8), uint64(7))
	f.Add(uint(6), uint(22), uint(32), uint64(8))
	f.Add(uint(11), uint(19), uint(0), uint64(9))
	f.Fuzz(func(t *testing.T, um, un, uk uint, seed uint64) {
		m, n, k := int(um%33)+1, int(un%33)+1, int(uk%33)+1
		a := Random(m, k, seed)
		b := Random(k, n, seed+1)
		base := Random(m, n, seed+2)
		addRef := base.Clone()
		if err := MulAdd(addRef, a, b); err != nil {
			t.Fatal(err)
		}
		subRef := base.Clone()
		if err := mulSubRef(subRef, a, b); err != nil {
			t.Fatal(err)
		}
		for _, on := range vecStates() {
			setVec(t, on)
			for _, shape := range Shapes() {
				kc := KernelConfig{Shape: shape}
				got := base.Clone()
				if err := kc.MulAdd(got, a, b); err != nil {
					t.Fatal(err)
				}
				if d := got.MaxAbsDiff(addRef); d != 0 {
					t.Fatalf("shape %v vec=%v MulAdd %dx%dx%d deviates by %g", shape, on, m, n, k, d)
				}
				got = base.Clone()
				if err := kc.MulSub(got, a, b); err != nil {
					t.Fatal(err)
				}
				if d := got.MaxAbsDiff(subRef); d != 0 {
					t.Fatalf("shape %v vec=%v MulSub %dx%dx%d deviates by %g", shape, on, m, n, k, d)
				}
			}
		}
	})
}
