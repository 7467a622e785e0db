package mat

import (
	"math"
	"testing"

	"repro/internal/fp"
)

// Plain reference products for building and checking test fixtures. The
// package itself needs no dense product: the GP runs only factorizations,
// solves and rank-one updates.

// mul returns a·b by the plain ikj loop, skipping exact-zero multipliers.
func mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic("mat: mul dimension mismatch")
	}
	out := NewDense(a.rows, b.cols, nil)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, aik := range arow {
			if fp.Zero(aik) {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += aik * brow[j]
			}
		}
	}
	return out
}

// mulVec returns a·x.
func mulVec(a *Dense, x []float64) []float64 {
	out := make([]float64, a.rows)
	for i := range out {
		out[i] = Dot(a.Row(i), x)
	}
	return out
}

// transpose returns a newly allocated mᵀ.
func transpose(m *Dense) *Dense {
	t := NewDense(m.cols, m.rows, nil)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

func bitsEqual(t *testing.T, got, want *Dense, label string) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if len(g) != len(w) {
		t.Fatalf("%s: length %d != %d", label, len(g), len(w))
	}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: element %d = %x (%v), want %x (%v)",
				label, i, math.Float64bits(g[i]), g[i], math.Float64bits(w[i]), w[i])
		}
	}
}
