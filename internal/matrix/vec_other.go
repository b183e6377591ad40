//go:build !amd64

package matrix

// vecHost is false off amd64: there is no vector tile kernel, and the
// 4×4 shape runs its scalar code on every block.
const vecHost = false

//repro:kernel
func vecBlocks(c, a, b *Dense, sub bool) int { return 0 }
