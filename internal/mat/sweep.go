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

// backSweepGo applies four finished rows of a back solve to every
// earlier entry: with m = len(y), rows m…m+3 are final and hold
// x0 = x[m+3], x1 = x[m+2], x2 = x[m+1] and x3 = x[m], and for every
// i < m
//
//	y[i] = (((y[i] − L[m+3][i]·x0) − L[m+2][i]·x1) − L[m+1][i]·x2) − L[m][i]·x3
//
// reading L from l, a packed factor of order n. The four entries sit
// together at l[o_i : o_i+4], with o_0 = m and o_{i+1} = o_i + n − i − 1.
// It runs wherever backSweepVec declines (always, in a portable build)
// and is the AVX2 body's bit-for-bit oracle.
func backSweepGo(y, l []float64, n int, x0, x1, x2, x3 float64) {
	o := len(y)
	for i, v := range y {
		b := l[o : o+4 : o+4]
		t := v - b[3]*x0
		t -= b[2] * x1
		t -= b[1] * x2
		y[i] = t - b[0]*x3
		o += n - i - 1
	}
}
