package matrix

import "fmt"

// This file is the kernel shape family behind the autotuner: the hot
// kernels — MulAdd/MulSub, FactorTile and both Trsm solves — exist in
// several register-blocking shapes, selected at run time through a
// KernelConfig. The paper's model prices a tile kernel at its flop
// count and assumes it runs at hardware speed; which accumulator tiling
// actually reaches that speed is a property of the host (register file,
// store-forwarding, compiler enregistering), so the shape is a tunable,
// not a constant. cmd/tune sweeps the family and records the winner in
// TUNE.json.
//
// Every shape is pinned bitwise-identical to its reference kernel
// (MulAdd's i-k-j loop, plain FactorTile, the plain Trsm solves): each
// C element receives its k products in ascending order starting from
// the prior value, each LU update element is touched exactly once per
// pivot step, and each Trsm row/column accumulates in the reference
// order. Changing shape can therefore never change a result — not the
// sequential/parallel bitwise equality, not the sim↔exec stream
// equivalence — only the time it takes to produce it.
//
// The 4x4 shape's MulAdd/MulSub (MulAddUnrolled, MulSubUnrolled) run
// every full 4×8 block of C through an AVX kernel on hosts that have
// one, and scalar code elsewhere and on the edges. The bitwise argument
// carries over because the vector kernel multiplies and then adds (or
// subtracts) as two rounded operations, never FMA, which is exactly
// what Go emits for the scalar s += a*b on amd64. The 8x4 and 8x8
// shapes stay scalar throughout.

// Shape names one register-blocking accumulator tiling of the kernel
// family. The zero value is the 4×4 shape, the repo's historical
// default, so a zero KernelConfig behaves exactly like the pre-tuning
// executor.
type Shape uint8

const (
	// Shape4x4 holds a 4×4 C tile in 16 scalar accumulators (the
	// historical MulAddUnrolled shape); its MulAdd/MulSub run full 4×8
	// blocks through the AVX kernel where the host has one.
	Shape4x4 Shape = iota
	// Shape8x4 holds an 8×4 C tile in 32 scalar accumulators.
	Shape8x4
	// Shape8x8 holds an 8×8 C tile in 64 scalar accumulators.
	Shape8x8

	numShapes
)

// String names the shape as cmd/tune and TUNE.json spell it.
func (s Shape) String() string {
	switch s {
	case Shape4x4:
		return "4x4"
	case Shape8x4:
		return "8x4"
	case Shape8x8:
		return "8x8"
	default:
		return fmt.Sprintf("Shape(%d)", uint8(s))
	}
}

// Dims returns the accumulator tile dimensions (rows, cols) of the
// GEMM micro-kernel for this shape.
func (s Shape) Dims() (mr, nr int) {
	switch s {
	case Shape8x4:
		return 8, 4
	case Shape8x8:
		return 8, 8
	default:
		return 4, 4
	}
}

// ParseShape resolves the TUNE.json/flag spelling of a shape.
func ParseShape(name string) (Shape, error) {
	for s := Shape(0); s < numShapes; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("matrix: unknown kernel shape %q (want one of 4x4, 8x4, 8x8)", name)
}

// Shapes returns every member of the shape family, in sweep order.
func Shapes() []Shape {
	return []Shape{Shape4x4, Shape8x4, Shape8x8}
}

// KernelConfig selects the register-blocking shape the executor's
// kernel dispatch uses. The zero value selects Shape4x4 and reproduces
// the untuned executor bit for bit.
type KernelConfig struct {
	Shape Shape
}

// DefaultKernelConfig is the untuned configuration: the 4×4 shape.
var DefaultKernelConfig = KernelConfig{Shape: Shape4x4}

// MulAdd computes C += A×B with the configured shape. All shapes are
// bitwise identical to the reference MulAdd.
//
//repro:kernel
func (kc KernelConfig) MulAdd(c, a, b *Dense) error {
	switch kc.Shape {
	case Shape8x4:
		return mulAddRB8x4(c, a, b)
	case Shape8x8:
		return mulAddRB8x8(c, a, b)
	default:
		return MulAddUnrolled(c, a, b)
	}
}

// MulSub computes C -= A×B with the configured shape. All shapes are
// bitwise identical to the reference i-k-j MulSub loop.
//
//repro:kernel
func (kc KernelConfig) MulSub(c, a, b *Dense) error {
	switch kc.Shape {
	case Shape8x4:
		return mulSubRB8x4(c, a, b)
	case Shape8x8:
		return mulSubRB8x8(c, a, b)
	default:
		return MulSubUnrolled(c, a, b)
	}
}

// FactorTile factors the square tile in place with the shape's row
// blocking (mr rows of trailing updates share each pivot row load).
// The 8×4 and 8×8 shapes both block eight rows; the column unrolling
// follows the shape's nr. Bitwise identical to the reference
// FactorTile for every shape.
//
//repro:kernel
func (kc KernelConfig) FactorTile(d *Dense) error {
	switch kc.Shape {
	case Shape8x4, Shape8x8:
		return factorTileRB8(d)
	default:
		return factorTileRB4(d)
	}
}

// TrsmUpperRight solves X·U = B in place, blocking mr rows of B so the
// U column loads are shared. Bitwise identical to the reference solve.
//
//repro:kernel
func (kc KernelConfig) TrsmUpperRight(diag, b *Dense) error {
	switch kc.Shape {
	case Shape8x4, Shape8x8:
		return trsmUpperRightRB8(diag, b)
	default:
		return trsmUpperRightRB4(diag, b)
	}
}

// TrsmLowerLeftUnit solves L·X = B in place, blocking nr columns of B
// so the L row loads are shared. Bitwise identical to the reference
// solve.
//
//repro:kernel
func (kc KernelConfig) TrsmLowerLeftUnit(diag, b *Dense) error {
	switch kc.Shape {
	case Shape8x8:
		return trsmLowerLeftRB8(diag, b)
	default:
		return trsmLowerLeftRB4(diag, b)
	}
}
