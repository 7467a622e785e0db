//go:build amd64 && !purego

package kernel

import (
	"math"

	"repro/internal/simd"
)

// radialVector turns on the AVX2 radial pass under EvalRow and
// EvalRowRadial: the CPU probe must find AVX2 and FMA, and the pass must
// reproduce phiDeriv bit for bit on radialSelfCheck's inputs.
var radialVector = simd.AVX2FMA() && radialSelfCheck()

// vectorRows runs EvalRow's and EvalRowRadial's fill (dphi nil for
// EvalRow) in two passes while the radial pass is on and reports whether
// it did; otherwise their scalar loops run. The first pass writes each
// row's r² with those loops' summation: r2Vec where it takes the
// dimension, the scalar loop otherwise. The second is radialRows.
func (k *Matern52) vectorRows(dst, dphi, x, xs []float64) bool {
	if !radialVector {
		return false
	}
	d := k.dim
	x = x[:d]
	inv := k.invLen[:d]
	if !r2Vec(dst, x, xs, inv) {
		for i := range dst {
			row := xs[i*d : i*d+d : i*d+d]
			var s float64
			for j, rv := range row {
				diff := (x[j] - rv) * inv[j]
				s += diff * diff
			}
			dst[i] = s
		}
	}
	radialRows(dst, dphi, k.variance)
	return true
}

// r2Vec writes each of the len(dst) rows' r² by r2AVX2 and reports true
// where len(x) is a multiple of four; otherwise it does nothing and
// reports false. The caller has checked the operands' lengths.
func r2Vec(dst, x, xs, inv []float64) bool {
	d := len(x)
	if d%4 != 0 {
		return false
	}
	r2AVX2(dst, x, xs[:len(dst)*d], inv[:d])
	return true
}

// r2AVX2 writes r² = Σ_t ((x[t] − X_i[t])·inv[t])² for each of the
// len(dst) rows X_i of xs into dst[i], with the scalar loop's bits: four
// rows at a time, their squared differences transposed in registers so
// that one lane per row sums them from +0 in increasing t, then the last
// len(dst) mod 4 rows one at a time. len(x) = len(inv) is a positive
// multiple of four, and xs holds len(dst)·len(x) values.
//
//go:noescape
func r2AVX2(dst, x, xs, inv []float64)

// radialRows replaces each r² in dst by v·φ(r²) and, unless dphi is nil,
// writes dφ/d(r²) into dphi (len(dst) long). radialAVX2 takes four rows
// at a time; a block it declines (a lane with t ≥ 708 or NaN) and the
// last len(dst) mod 4 rows go to phiDeriv, so every row has phiDeriv's
// bits. It must run only while radialVector is set.
func radialRows(dst, dphi []float64, v float64) {
	for i := 0; i < len(dst); {
		if n := (len(dst) - i) &^ 3; n > 0 {
			var dp *float64
			if dphi != nil {
				dp = &dphi[i]
			}
			i += radialAVX2(&dst[i], dp, n, v)
		}
		for end := min(i+4, len(dst)); i < end; i++ {
			p, d := phiDeriv(dst[i])
			dst[i] = v * p
			if dphi != nil {
				dphi[i] = d
			}
		}
	}
}

// radialAVX2 replaces the r² values in dst[0:n], n a positive multiple of
// four, by v·φ(r²) and writes dφ/d(r²) into dphi[0:n] unless dphi is nil,
// stopping before the first block of four with a lane whose t = √(5r²) is
// NaN or at least 708; it returns the number of entries done. The
// exponential follows math.Exp's amd64 FMA branch operation for
// operation.
//
//go:noescape
func radialAVX2(dst, dphi *float64, n int, v float64) int

// radialCheckRows is the size of radialSelfCheck's input set.
const radialCheckRows = 256

// radialSelfCheck runs the vector pass over a fixed spread of r² (t from
// 0 to about 700) and reports whether every value and derivative equals
// phiDeriv's bits. math.Exp takes its FMA branch only where the math
// package sees AVX and FMA itself; under GODEBUG=cpu.fma=off or
// cpu.avx=off it takes the other branch, which rounds differently (at
// x = −8.793055720104473, for one), and the vector pass must then stay
// off.
func radialSelfCheck() bool {
	const v = 1.5
	var r2, dst, dphi [radialCheckRows]float64
	for i := range r2 {
		t := 700 * float64(i) / radialCheckRows * (1 + 0.01*math.Sin(float64(i)))
		r2[i] = t * t / 5
	}
	r2[1] = 8.793055720104473 * 8.793055720104473 / 5
	dst = r2
	if radialAVX2(&dst[0], &dphi[0], radialCheckRows, v) != radialCheckRows {
		return false
	}
	for i, s := range r2 {
		p, d := phiDeriv(s)
		if math.Float64bits(dst[i]) != math.Float64bits(v*p) || math.Float64bits(dphi[i]) != math.Float64bits(d) {
			return false
		}
	}
	return true
}
