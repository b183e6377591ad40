package matrix

import (
	"fmt"
	"math"
	"testing"
)

// Tests of the vector path behind MulAddUnrolled/MulSubUnrolled. Every
// test runs in each toggle state the host supports, so the scalar code
// stays pinned on AVX hosts too.

// vecStates lists the vector-path toggle states this host can run.
func vecStates() []bool {
	if vecHost {
		return []bool{false, true}
	}
	return []bool{false}
}

// setVec sets the vector-path toggle until the test ends.
func setVec(tb testing.TB, on bool) {
	old := vecKernel
	vecKernel = on
	tb.Cleanup(func() { vecKernel = old })
}

func forVecStates(t *testing.T, f func(t *testing.T)) {
	for _, on := range vecStates() {
		t.Run(fmt.Sprintf("vec=%v", on), func(t *testing.T) {
			setVec(t, on)
			f(t)
		})
	}
}

// mulAddPlain is the plain i-k-j C += A×B loop, with no unrolling.
func mulAddPlain(c, a, b *Dense) {
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			av := a.data[i*a.stride+k]
			for j := 0; j < b.cols; j++ {
				c.data[i*c.stride+j] += av * b.data[k*b.stride+j]
			}
		}
	}
}

// sameBits reports the first element where got and want differ in
// their bits. Two NaNs count as equal whatever their payloads.
func sameBits(got, want *Dense) (int, int, bool) {
	for i := 0; i < want.rows; i++ {
		for j := 0; j < want.cols; j++ {
			g, w := got.data[i*got.stride+j], want.data[i*want.stride+j]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// checkMulKernels runs MulAdd, MulAddUnrolled and MulSubUnrolled on
// copies of c and compares each with the plain loops, bitwise.
func checkMulKernels(t *testing.T, c, a, b *Dense, what string) {
	t.Helper()
	addWant := c.Clone()
	mulAddPlain(addWant, a, b)
	subWant := c.Clone()
	if err := mulSubRef(subWant, a, b); err != nil {
		t.Fatal(err)
	}
	for _, k := range []struct {
		name string
		f    func(c, a, b *Dense) error
		want *Dense
	}{
		{"MulAdd", MulAdd, addWant},
		{"MulAddUnrolled", MulAddUnrolled, addWant},
		{"MulSubUnrolled", MulSubUnrolled, subWant},
	} {
		got := c.Clone()
		if err := k.f(got, a, b); err != nil {
			t.Fatal(err)
		}
		if i, j, ok := sameBits(got, k.want); !ok {
			t.Fatalf("%s %s: C[%d][%d] = %v, want %v", k.name, what, i, j, got.At(i, j), k.want.At(i, j))
		}
	}
}

func TestVecKernelBitwiseAllSmallShapes(t *testing.T) {
	forVecStates(t, func(t *testing.T) {
		for m := 0; m < 20; m++ {
			for n := 0; n < 20; n++ {
				for k := 0; k < 20; k++ {
					seed := uint64(400*m+20*n+k) * 3
					a, b, c := Random(m, k, seed+1), Random(k, n, seed+2), Random(m, n, seed+3)
					checkMulKernels(t, c, a, b, fmt.Sprintf("%dx%dx%d", m, n, k))
				}
			}
		}
	})
}

// guardedView returns an r×c strided view into the bottom-right corner
// of a larger random matrix. The view ends exactly at the end of its
// backing slice, and the capacity past that end holds NaN sentinels:
// a read past the slice turns a result into NaN, and a write past it
// overwrites a sentinel. The returned slice is the sentinel tail.
func guardedView(r, c int, seed uint64) (*Dense, []float64) {
	pr, pc := r+2, c+3
	n := pr * pc
	back := make([]float64, n+64)
	copy(back, Random(pr, pc, seed).data)
	for i := n; i < len(back); i++ {
		back[i] = math.NaN()
	}
	p, err := NewFromSlice(pr, pc, back[:n])
	if err != nil {
		panic(err)
	}
	return p.View(2, 3, r, c), back[n:]
}

func TestVecKernelStridedViewsAtSliceEnd(t *testing.T) {
	dims := [][3]int{
		{4, 8, 1}, {4, 8, 5}, {8, 16, 7}, {13, 19, 5}, {5, 9, 17},
		{16, 32, 16}, {12, 24, 3}, {3, 8, 4}, {4, 7, 4}, {32, 32, 32},
	}
	forVecStates(t, func(t *testing.T) {
		for _, d := range dims {
			m, n, k := d[0], d[1], d[2]
			a, aTail := guardedView(m, k, 1)
			b, bTail := guardedView(k, n, 2)
			c, cTail := guardedView(m, n, 3)
			for _, sub := range []bool{false, true} {
				before := c.Clone()
				want := c.Clone()
				if sub {
					if err := mulSubRef(want, a.Clone(), b.Clone()); err != nil {
						t.Fatal(err)
					}
					if err := MulSubUnrolled(c, a, b); err != nil {
						t.Fatal(err)
					}
				} else {
					mulAddPlain(want, a.Clone(), b.Clone())
					if err := MulAddUnrolled(c, a, b); err != nil {
						t.Fatal(err)
					}
				}
				if i, j, ok := sameBits(c, want); !ok {
					t.Fatalf("%v sub=%v: C[%d][%d] = %v, want %v", d, sub, i, j, c.At(i, j), want.At(i, j))
				}
				if err := c.CopyFrom(before); err != nil {
					t.Fatal(err)
				}
			}
			for _, tail := range [][]float64{aTail, bTail, cTail} {
				for _, v := range tail {
					if !math.IsNaN(v) {
						t.Fatalf("%v: kernel wrote %v past the end of a slice", d, v)
					}
				}
			}
		}
	})
}

// specials mixes signed zeros, infinities, subnormals and NaN with
// ordinary values.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -4e-320, math.SmallestNonzeroFloat64 * 3, 1, -1.5, 2.5,
	1e308, -1e-310, 0.1,
}

func specialDense(r, c int, seed uint64) *Dense {
	rng := xorshift64(seed)
	d := New(r, c)
	for i := range d.data {
		d.data[i] = specials[rng.next()%uint64(len(specials))]
	}
	return d
}

func TestVecKernelSpecialValues(t *testing.T) {
	forVecStates(t, func(t *testing.T) {
		for _, d := range [][3]int{{4, 8, 1}, {8, 16, 9}, {13, 19, 7}, {4, 8, 3}, {16, 16, 16}} {
			for seed := uint64(1); seed <= 8; seed++ {
				a, b, c := specialDense(d[0], d[2], seed), specialDense(d[2], d[1], seed+100), specialDense(d[0], d[1], seed+200)
				checkMulKernels(t, c, a, b, fmt.Sprintf("%v seed %d", d, seed))
			}
		}
		// Subnormal products and sums: every A·B product underflows.
		a, b, c := New(8, 5), New(5, 16), New(8, 16)
		a.Fill(1e-160)
		b.Fill(-3e-160)
		c.Fill(5e-324)
		checkMulKernels(t, c, a, b, "all-subnormal")
	})
}

func TestVecKernelAllocationFree(t *testing.T) {
	a, b, c := Random(32, 32, 1), Random(32, 32, 2), Random(32, 32, 3)
	forVecStates(t, func(t *testing.T) {
		for _, k := range []func(c, a, b *Dense) error{MulAddUnrolled, MulSubUnrolled} {
			if n := testing.AllocsPerRun(20, func() { _ = k(c, a, b) }); n != 0 {
				t.Fatalf("kernel allocates %v times per call", n)
			}
		}
	})
}

// A Dense whose backing slice is shorter than its shape needs must
// make the vector wrapper panic before any assembly call, leaving C
// untouched, instead of letting the kernel read or write past it.
func TestVecKernelShortSlicePanics(t *testing.T) {
	if !vecHost {
		t.Skip("no vector kernel on this host")
	}
	setVec(t, true)
	const m, n, k = 4, 8, 5
	for _, short := range []string{"a", "b", "c"} {
		for _, sub := range []bool{false, true} {
			a, b, c := Random(m, k, 1), Random(k, n, 2), Random(m, n, 3)
			op := map[string]*Dense{"a": a, "b": b, "c": c}[short]
			l := len(op.data) - 1
			op.data = op.data[:l:l]
			before := append([]float64(nil), c.data...)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("short %s, sub=%v: wrapper did not panic", short, sub)
					}
				}()
				vecBlocks(c, a, b, sub)
			}()
			for i := range c.data {
				if c.data[i] != before[i] {
					t.Fatalf("short %s, sub=%v: C changed before the panic", short, sub)
				}
			}
		}
	}
}

// BenchmarkKernel reports the 4x4 shape's MulAdd tile rate at the
// paper's tile sizes, with the vector path on and off.
func BenchmarkKernel(b *testing.B) {
	for _, q := range []int{8, 16, 32} {
		for _, on := range vecStates() {
			b.Run(fmt.Sprintf("q=%d/vec=%v", q, on), func(b *testing.B) {
				setVec(b, on)
				x, y, z := Random(q, q, 1), Random(q, q, 2), Random(q, q, 3)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := MulAddUnrolled(z, x, y); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(2*float64(q*q*q)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
