//go:build amd64 && !purego

package mat

import "repro/internal/simd"

// invTransposeVec transposes InverseInto's phase-one scratch in place
// where the probe found AVX2 and FMA, so that row k holds L⁻¹[k][0..k],
// and reports whether it did; the product phase then runs invProductVec
// on it instead of invProductRows.
func invTransposeVec(wt *Dense) bool {
	if !simd.AVX2FMA() {
		return false
	}
	transposeInPlace(wt.data, wt.rows)
	return true
}

// invProductVec fills rows [lo, hi) of inv, the mirror cells included,
// with the AVX2 body, from lt, the scratch invTransposeVec transposed;
// it runs only after invTransposeVec reported true. Cell (i, j≤i) is
//
//	Σ_{k=i}^{n−1} L⁻¹[k][i]·L⁻¹[k][j]
//
// summed from +0 in increasing k, with the Go loop's bits: one lane per
// cell, L⁻¹[k][i] broadcast against L⁻¹[k][j…j+15] in four independent
// accumulators.
func invProductVec(inv, lt *Dense, lo, hi int) {
	if lo >= hi {
		return
	}
	n := lt.rows
	invProductAVX2(inv.data, lt.data, n, lo, hi)
	for i := lo; i < hi; i++ {
		for j, v := range inv.data[i*n : i*n+i] {
			inv.data[j*n+i] = v
		}
	}
}

// transposeInPlace swaps the strict triangles of the n×n row-major a in
// 16×16 tiles.
func transposeInPlace(a []float64, n int) {
	const tile = 16
	a = a[:n*n]
	for i0 := 0; i0 < n; i0 += tile {
		for k0 := i0; k0 < n; k0 += tile {
			for i := i0; i < min(i0+tile, n); i++ {
				for k := max(k0, i+1); k < min(k0+tile, n); k++ {
					a[i*n+k], a[k*n+i] = a[k*n+i], a[i*n+k]
				}
			}
		}
	}
}

// invProductAVX2 writes cells (i, j≤i) of rows [lo, hi) of the n×n
// row-major inv from lt, whose row k holds L⁻¹[k][0..k]; 0 ≤ lo < hi ≤ n
// and both slices hold n·n entries. The upper cells are not written.
//
//go:noescape
func invProductAVX2(inv, lt []float64, n, lo, hi int)
