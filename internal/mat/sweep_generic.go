//go:build !amd64 || purego

package mat

// subMul4Vec declines every sweep in a portable build, where factorize
// and forwardSolve run subMul4Go, inlined.
func subMul4Vec(dst, c0, c1, c2, c3 []float64, a0, a1, a2, a3 float64) bool { return false }

// backSweepVec declines every back-solve sweep in a portable build,
// where backSolve runs backSweepGo.
func backSweepVec(y, l []float64, n int, x0, x1, x2, x3 float64) bool { return false }
