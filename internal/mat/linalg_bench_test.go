package mat

import (
	"testing"

	"repro/internal/rng"
)

// The MulInto trio pins the blocked path's speedup over the ikj
// reference at the ≥1024-point scale bench.sh gates on: the -check floor
// requires BenchmarkMulInto1024 to stay at or below 1.10× the naive
// time, so the dispatch can never silently regress to slower-than-naive.

func benchMulFixture(n int) (a, b, dst *Dense) {
	src := rng.New(42, uint64(n))
	return randomDense(src, n, n), randomDense(src, n, n), NewDense(n, n, nil)
}

func BenchmarkMulIntoNaive1024(b *testing.B) {
	x, y, dst := benchMulFixture(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulIKJ(dst, x, y)
	}
}

func BenchmarkMulIntoBlocked1024(b *testing.B) {
	x, y, dst := benchMulFixture(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulBlockedRows(dst, x, y, 0, x.rows)
	}
}

func BenchmarkMulInto1024(b *testing.B) {
	x, y, dst := benchMulFixture(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulInto(dst, x, y)
	}
}

// benchExtendFixture builds a well-conditioned n×n factor without the
// O(n³) factorization, plus an m-column cross block in column-major order
// and its m×m corner.
func benchExtendFixture(b *testing.B, n, m int) (*Cholesky, []float64, *Dense) {
	b.Helper()
	src := rng.New(7, uint64(n))
	l := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		row := l.Row(i)
		for j := 0; j < i; j++ {
			row[j] = 0.25 / float64(n)
		}
		row[i] = 1
	}
	c, err := CholeskyFromLower(l)
	if err != nil {
		b.Fatalf("CholeskyFromLower: %v", err)
	}
	bm := randomDense(src, n, m)
	for i, v := range bm.Data() {
		bm.Data()[i] = 0.1 * v // keep the Schur complement comfortably PD
	}
	cc := NewDense(m, m, nil)
	for i := 0; i < m; i++ {
		cc.Set(i, i, float64(n))
	}
	return c, colMajor(bm), cc
}

func BenchmarkExtendCols1024(b *testing.B) {
	c, bcols, cc := benchExtendFixture(b, 1024, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ExtendCols(bcols, cc); err != nil {
			b.Fatal(err)
		}
	}
}
