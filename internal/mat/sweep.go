package mat

// subMul4Go applies four finished columns to dst in one pass:
//
//	dst[i] = (((dst[i] − c0[i]·a0) − c1[i]·a1) − c2[i]·a2) − c3[i]·a3
//
// for every i, each c slice at least len(dst) long. It is the sweep both
// factorize and forwardSolve run for four columns at a time: each entry
// of dst is loaded and stored once for all four updates, which still
// land in increasing column order. It runs wherever subMul4Vec declines
// (always, in a portable build) and is the AVX2 body's bit-for-bit
// oracle.
func subMul4Go(dst, c0, c1, c2, c3 []float64, a0, a1, a2, a3 float64) {
	c0, c1, c2, c3 = c0[:len(dst)], c1[:len(dst)], c2[:len(dst)], c3[:len(dst)]
	for i, v := range dst {
		t := v - c0[i]*a0
		t -= c1[i] * a1
		t -= c2[i] * a2
		dst[i] = t - c3[i]*a3
	}
}
