//go:build !amd64 || purego

package mat

// subMul4 is subMul4Go in a portable build, inlined where factorize and
// forwardSolve call it.
func subMul4(dst, c0, c1, c2, c3 []float64, a0, a1, a2, a3 float64) {
	subMul4Go(dst, c0, c1, c2, c3, a0, a1, a2, a3)
}
