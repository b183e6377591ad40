package matrix

// vecHost reports whether this host can run the AVX tile kernel.
var vecHost = cpuHasAVX()

// cpuHasAVX reports whether the CPU supports AVX and the OS saves YMM
// state (CPUID leaf 1 plus XGETBV).
func cpuHasAVX() bool

// mulAdd4x8AVX computes the 4×8 block C += A×B over k steps. c, a and
// b point at the block's first element of each operand; ldc, lda and
// ldb are their strides in elements. It reads a[0..3·lda+k) and
// b[0..(k-1)·ldb+8) and reads and writes c[0..3·ldc+8): the caller
// must have bounds-checked all three.
//
//repro:kernel
//go:noescape
func mulAdd4x8AVX(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, k int)

// mulSub4x8AVX is mulAdd4x8AVX for C -= A×B.
//
//repro:kernel
//go:noescape
func mulSub4x8AVX(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, k int)

// vecBlocks runs the AVX kernel over every full 4×8 block of C += A×B
// (C -= A×B when sub is set) and returns how many leading columns of
// rows 0..m&^3 it covered: a multiple of 8, or 0 when the vector path
// is off or there is no full block. The caller finishes the remaining
// columns and rows with the scalar code.
//
//repro:kernel
func vecBlocks(c, a, b *Dense, sub bool) int {
	m, n, kk := a.rows&^3, b.cols&^7, a.cols
	if !vecKernel || m == 0 || n == 0 || kk == 0 {
		return 0
	}
	// Touch the farthest element of each operand first, so a view too
	// short for its shape panics here instead of letting the assembly
	// read or write past its slice.
	_ = a.data[(m-1)*a.stride+kk-1]
	_ = b.data[(kk-1)*b.stride+n-1]
	_ = c.data[(m-1)*c.stride+n-1]
	for i := 0; i < m; i += 4 {
		ap := &a.data[i*a.stride]
		for j := 0; j < n; j += 8 {
			if sub {
				mulSub4x8AVX(&c.data[i*c.stride+j], c.stride, ap, a.stride, &b.data[j], b.stride, kk)
			} else {
				mulAdd4x8AVX(&c.data[i*c.stride+j], c.stride, ap, a.stride, &b.data[j], b.stride, kk)
			}
		}
	}
	return n
}
