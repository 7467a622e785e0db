package mat

import (
	"testing"

	"repro/internal/rng"
)

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

// The three n=184 benchmarks time the factor sizes of a paper day's last
// fit (128 initial points plus eight cycles of eight): the in-place
// refactorization a pooled fit workspace runs per LML evaluation, the
// inverse every LML gradient starts from, and the forward solve at the
// bottom of every posterior prediction.

const paperN = 184

func BenchmarkCholesky184(b *testing.B) {
	a := randomSPD(rng.New(5, 184), paperN)
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Refactorize(a, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInverse184(b *testing.B) {
	c, err := NewCholesky(randomSPD(rng.New(8, 184), paperN), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	inv, wt := NewDense(paperN, paperN, nil), NewDense(paperN, paperN, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.InverseInto(inv, wt)
	}
}

func BenchmarkForwardSolve184(b *testing.B) {
	src := rng.New(6, 184)
	c, err := NewCholesky(randomSPD(src, paperN), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	rhs := randomVec(src, paperN)
	dst := make([]float64, paperN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ForwardSolveVecInto(dst, rhs)
	}
}

func BenchmarkBackSolve184(b *testing.B) {
	src := rng.New(6, 184)
	c, err := NewCholesky(randomSPD(src, paperN), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	rhs := randomVec(src, paperN)
	dst := make([]float64, paperN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.BackSolveVecInto(dst, rhs)
	}
}
