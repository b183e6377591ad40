package matrix

import "fmt"

// This file holds the numerical kernels. The paper's algorithms call a
// sequential DGEMM on q×q tiles ("to harness the power of BLAS routines");
// here those calls resolve to MulAdd, a cache-friendly pure-Go kernel, and
// MulNaive serves as the independent reference for verification.

// MulNaive computes C += A×B with the textbook triple loop (i, j, k).
// It is deliberately simple and is used as the correctness oracle.
func MulNaive(c, a, b *Dense) error {
	if err := checkMul(c, a, b); err != nil {
		return err
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += a.data[i*a.stride+k] * b.data[k*b.stride+j]
			}
			c.data[i*c.stride+j] += s
		}
	}
	return nil
}

// MulAdd computes C += A×B using the i-k-j loop order so the innermost
// loop streams rows of B and C. It is the kernel of the sequential
// MulBlocked baseline (the executor's tile computes run MulAddUnrolled
// in both modes). It performs exactly 2·m·n·k flops: rows of A
// containing zeros are not skipped, so the kernel's work — and any
// GFLOP/s number derived from it — depends only on the shapes, never on
// the data (a sparse variant would belong in a kernel of its own).
//
// MulAdd and MulBlocked never take the vector path: they stay scalar Go
// so that they remain an oracle independent of the assembly kernel
// behind MulAddUnrolled. The j loop is unrolled by four, which keeps
// the same per-element operation order.
//
//repro:kernel
func MulAdd(c, a, b *Dense) error {
	if err := checkMul(c, a, b); err != nil {
		return err
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.stride : i*a.stride+a.cols]
		crow := c.data[i*c.stride : i*c.stride+c.cols]
		for k, av := range arow {
			brow := b.data[k*b.stride : k*b.stride+b.cols]
			crow := crow[:len(brow)]
			j := 0
			for ; j+4 <= len(brow); j += 4 {
				b4 := brow[j : j+4 : j+4]
				c4 := crow[j : j+4 : j+4]
				c4[0] += av * b4[0]
				c4[1] += av * b4[1]
				c4[2] += av * b4[2]
				c4[3] += av * b4[3]
			}
			for ; j < len(brow); j++ {
				crow[j] += av * brow[j]
			}
		}
	}
	return nil
}

// vecKernel selects the vector path of MulAddUnrolled and
// MulSubUnrolled. It is on wherever the host can run the AVX kernel
// (off in race builds, see vec_race.go); tests flip it to pin both
// paths against the scalar reference.
var vecKernel = vecHost

// MulAddUnrolled is MulAdd restructured as a register-blocked
// micro-kernel. On hosts with AVX (amd64, outside race builds) every
// full 4×8 block of C runs the assembly kernel in vec_amd64.s, which
// holds the block in eight YMM accumulators; the remaining columns use
// a 4×4 scalar micro-kernel with sixteen accumulators, and the m%4
// trailing rows the scalar row path. In every case the k loop streams
// A and B values while C stays in registers. It is the executor's q×q
// tile kernel in every mode — over strided views in ModeView and over
// the cached contiguous headers of arena-resident tiles in the staging
// modes — so packed-vs-view ratios measure data layout, not loop shape.
// Every C element still receives its k products in ascending order
// starting from the prior C value, each product rounded and then added
// (vector multiply then vector add, never FMA, just as Go compiles the
// scalar loops), so the result is bitwise identical to MulAdd's, and
// the flop count stays exactly 2·m·n·k regardless of the data.
//
//repro:kernel
func MulAddUnrolled(c, a, b *Dense) error {
	if err := checkMul(c, a, b); err != nil {
		return err
	}
	m, n, kk := a.rows, b.cols, a.cols
	j0 := vecBlocks(c, a, b, false)
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a.data[(i+0)*a.stride : (i+0)*a.stride+kk]
		a1 := a.data[(i+1)*a.stride : (i+1)*a.stride+kk]
		a2 := a.data[(i+2)*a.stride : (i+2)*a.stride+kk]
		a3 := a.data[(i+3)*a.stride : (i+3)*a.stride+kk]
		c0 := c.data[(i+0)*c.stride : (i+0)*c.stride+n]
		c1 := c.data[(i+1)*c.stride : (i+1)*c.stride+n]
		c2 := c.data[(i+2)*c.stride : (i+2)*c.stride+n]
		c3 := c.data[(i+3)*c.stride : (i+3)*c.stride+n]
		j := j0
		for ; j+4 <= n; j += 4 {
			s00, s01, s02, s03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
			s10, s11, s12, s13 := c1[j], c1[j+1], c1[j+2], c1[j+3]
			s20, s21, s22, s23 := c2[j], c2[j+1], c2[j+2], c2[j+3]
			s30, s31, s32, s33 := c3[j], c3[j+1], c3[j+2], c3[j+3]
			for k := 0; k < kk; k++ {
				brow := b.data[k*b.stride+j : k*b.stride+j+4 : k*b.stride+j+4]
				b0, b1, b2, b3 := brow[0], brow[1], brow[2], brow[3]
				av := a0[k]
				s00 += av * b0
				s01 += av * b1
				s02 += av * b2
				s03 += av * b3
				av = a1[k]
				s10 += av * b0
				s11 += av * b1
				s12 += av * b2
				s13 += av * b3
				av = a2[k]
				s20 += av * b0
				s21 += av * b1
				s22 += av * b2
				s23 += av * b3
				av = a3[k]
				s30 += av * b0
				s31 += av * b1
				s32 += av * b2
				s33 += av * b3
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
			c2[j], c2[j+1], c2[j+2], c2[j+3] = s20, s21, s22, s23
			c3[j], c3[j+1], c3[j+2], c3[j+3] = s30, s31, s32, s33
		}
		for ; j < n; j++ {
			s0, s1, s2, s3 := c0[j], c1[j], c2[j], c3[j]
			for k := 0; k < kk; k++ {
				bv := b.data[k*b.stride+j]
				s0 += a0[k] * bv
				s1 += a1[k] * bv
				s2 += a2[k] * bv
				s3 += a3[k] * bv
			}
			c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
		}
	}
	mulAddRowsFrom(c, a, b, i)
	return nil
}

// MulBlocked computes C += A×B by tiling all three operands with tile
// size q and invoking MulAdd on each tile triple. It is the sequential
// baseline the parallel executor is compared against.
func MulBlocked(c, a, b *Dense, q int) error {
	if err := checkMul(c, a, b); err != nil {
		return err
	}
	if q <= 0 {
		return fmt.Errorf("matrix: tile size q=%d must be positive", q)
	}
	for i := 0; i < c.rows; i += q {
		ri := min(q, c.rows-i)
		for k := 0; k < a.cols; k += q {
			rk := min(q, a.cols-k)
			av := a.View(i, k, ri, rk)
			for j := 0; j < c.cols; j += q {
				rj := min(q, c.cols-j)
				if err := MulAdd(c.View(i, j, ri, rj), av, b.View(k, j, rk, rj)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// AXPYBlock computes C += a*B where a is a scalar and B, C are equally
// shaped tiles. This is the "Cc ← Cc + a×Bc" elementary update of
// Algorithms 1–3 when the manipulated elements are single coefficients;
// at block granularity the scalar generalises to a tile and MulAdd is
// used instead.
func AXPYBlock(c, b *Dense, a float64) error {
	if c.rows != b.rows || c.cols != b.cols {
		return fmt.Errorf("matrix: axpy %dx%d += a*%dx%d: %w", c.rows, c.cols, b.rows, b.cols, ErrShape)
	}
	for i := 0; i < c.rows; i++ {
		crow := c.data[i*c.stride : i*c.stride+c.cols]
		brow := b.data[i*b.stride : i*b.stride+b.cols]
		for j := range crow {
			crow[j] += a * brow[j]
		}
	}
	return nil
}

func checkMul(c, a, b *Dense) error {
	if a.cols != b.rows || c.rows != a.rows || c.cols != b.cols {
		return fmt.Errorf("matrix: multiply C(%dx%d) += A(%dx%d)*B(%dx%d): %w",
			c.rows, c.cols, a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	return nil
}
