//go:build race

package matrix

// The race detector does not instrument assembly. Race builds keep the
// vector path off so that every tile load and store stays in Go code
// it can see.
func init() { vecKernel = false }
