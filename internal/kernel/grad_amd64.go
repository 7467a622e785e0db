//go:build amd64 && !purego

package kernel

import "repro/internal/simd"

// hyperGradVec runs HyperGradSum with the AVX2 body and reports true:
// part[0] as one scalar chain, then each run of four dimensions with its
// four accumulators in one vector across all pairs. It does nothing and
// reports false where the probe found no AVX2 or Dim() is not a multiple
// of four.
func (k *Matern52) hyperGradVec(part, x, xs, kv, dphi, w []float64, scale float64) bool {
	d := k.dim
	if !simd.AVX2FMA() || d%4 != 0 {
		return false
	}
	m := len(kv)
	k.checkRowBlock(m, x, xs)
	hyperGradAVX2(part[:1+d], x, xs, kv, dphi[:m], w[:m], k.inv2Len, 0.5*scale, -2*k.variance)
	return true
}

// gradXVec runs GradXSum with the AVX2 body and reports true: each run of
// four dimensions keeps its two accumulators in registers across all
// rows, and no row's gradient is stored. It does nothing and reports
// false where the probe found no AVX2 or Dim() is not a multiple of four.
func (k *Matern52) gradXVec(dMean, dVar, x, xs, dphi, alpha, w []float64) bool {
	d := k.dim
	if !simd.AVX2FMA() || d%4 != 0 {
		return false
	}
	n := len(dphi)
	k.checkRowBlock(n, x, xs)
	gradXAVX2(dMean[:d], dVar[:d], x, xs, dphi, alpha[:n], w[:n], k.inv2Len, 2*k.variance)
	return true
}

// hyperGradAVX2 is hyperGradVec's body: m = len(kv) pairs, d = len(x)
// dimensions, half = 0.5·scale and m2v = −2·σ².
//
//go:noescape
func hyperGradAVX2(part, x, xs, kv, dphi, w, inv2 []float64, half, m2v float64)

// gradXAVX2 is gradXVec's body: n = len(dphi) rows, d = len(x)
// dimensions and v2 = 2·σ².
//
//go:noescape
func gradXAVX2(dMean, dVar, x, xs, dphi, alpha, w, inv2 []float64, v2 float64)
