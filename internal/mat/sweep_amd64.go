//go:build amd64 && !purego

package mat

import "repro/internal/simd"

// subMul4Vec runs subMul4Go's whole sweep, its last len(dst) mod 4
// entries included, with the AVX2 body and reports true; it does nothing
// and reports false where the probe found no AVX2. The body multiplies
// and subtracts in separate instructions, so every lane rounds exactly as
// subMul4Go does. It is small enough to inline, so factorize and
// forwardSolve call the assembly directly.
func subMul4Vec(dst, c0, c1, c2, c3 []float64, a0, a1, a2, a3 float64) bool {
	if !simd.AVX2FMA() {
		return false
	}
	subMul4AVX2(dst, c0, c1, c2, c3, a0, a1, a2, a3)
	return true
}

// subMul4AVX2 is subMul4Go's sweep over len(dst) entries: four lanes at
// a time, then the last len(dst) mod 4 entries one at a time. It reads
// len(dst) entries of every c slice and checks no length: each caller
// cuts its c slices to len(dst) or longer.
//
//go:noescape
func subMul4AVX2(dst, c0, c1, c2, c3 []float64, a0, a1, a2, a3 float64)

// backSweepVec runs backSweepGo's whole sweep, its last len(y) mod 4
// entries included, with the AVX2 body and reports true; it does nothing
// and reports false where the probe found no AVX2. Like subMul4Vec's
// body it multiplies and subtracts in separate instructions, so every
// lane rounds as backSweepGo does. It checks once that the last entry's
// four factor entries lie inside l, which the body never checks.
func backSweepVec(y, l []float64, n int, x0, x1, x2, x3 float64) bool {
	if !simd.AVX2FMA() {
		return false
	}
	if m := len(y); m > 0 {
		// o_{m−1} = m + Σ_{j<m−1} (n − j − 1)
		_ = l[m+(m-1)*(n-1)-(m-1)*(m-2)/2+3]
		backSweepAVX2(y, l, n, x0, x1, x2, x3)
	}
	return true
}

// backSweepAVX2 is backSweepGo's sweep over len(y) ≥ 1 entries: four
// entries at a time, their factor blocks transposed in registers, then
// the last len(y) mod 4 entries one at a time. It checks no length.
//
//go:noescape
func backSweepAVX2(y, l []float64, n int, x0, x1, x2, x3 float64)
