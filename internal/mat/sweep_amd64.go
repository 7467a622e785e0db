//go:build amd64 && !purego

package mat

import "repro/internal/simd"

// subMul4 is subMul4Go with the longest multiple-of-four prefix of dst
// run four lanes wide where the CPU probe allows, with separate multiply
// and subtract instructions, so every lane rounds exactly as subMul4Go
// does; the rest runs subMul4Go.
func subMul4(dst, c0, c1, c2, c3 []float64, a0, a1, a2, a3 float64) {
	c0, c1, c2, c3 = c0[:len(dst)], c1[:len(dst)], c2[:len(dst)], c3[:len(dst)]
	i := subMul4Vec(dst, c0, c1, c2, c3, a0, a1, a2, a3)
	subMul4Go(dst[i:], c0[i:], c1[i:], c2[i:], c3[i:], a0, a1, a2, a3)
}

// subMul4Vec runs subMul4's sweep over the longest multiple-of-four
// prefix of dst with the AVX2 body and returns its length; it does
// nothing and returns 0 where the probe found no AVX2. The c slices are
// len(dst) long.
func subMul4Vec(dst, c0, c1, c2, c3 []float64, a0, a1, a2, a3 float64) int {
	n := len(dst) &^ 3
	if !simd.AVX2FMA() || n == 0 {
		return 0
	}
	subMul4AVX2(&dst[0], &c0[0], &c1[0], &c2[0], &c3[0], n, a0, a1, a2, a3)
	return n
}

// subMul4AVX2 is subMul4's sweep over n entries, n a positive multiple
// of four, four lanes at a time.
//
//go:noescape
func subMul4AVX2(dst, c0, c1, c2, c3 *float64, n int, a0, a1, a2, a3 float64)
