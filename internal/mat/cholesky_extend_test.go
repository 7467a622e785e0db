package mat

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestExtendColsMatchesExtend pins ExtendCols' input contract: the
// column block comes back unmodified, and bad shapes panic.
func TestExtendColsMatchesExtend(t *testing.T) {
	src := rng.New(9, 2)
	const n, m = 19, 4
	parent := randomSPD(src, n)
	bcols := colMajor(randomDense(src, n, m))
	cc := spdBlock(src, m, float64(n))
	orig := append([]float64(nil), bcols...)

	if _, err := factorOf(t, parent).ExtendCols(bcols, cc); err != nil {
		t.Fatalf("ExtendCols: %v", err)
	}
	vecBitsEqual(t, bcols, orig, "ExtendCols input")

	mustPanic(t, "short column block", func() {
		//lint:ignore errcheck the call panics before returning; there is no error to check
		_, _ = factorOf(t, parent).ExtendCols(bcols[:n*m-1], cc)
	})
	mustPanic(t, "non-square corner", func() {
		//lint:ignore errcheck the call panics before returning; there is no error to check
		_, _ = factorOf(t, parent).ExtendCols(bcols, NewDense(m, m+1, nil))
	})
}

// TestCholeskyFromLower covers the test-fixture constructor used to build
// large synthetic factors without an O(n³) factorization.
func TestCholeskyFromLower(t *testing.T) {
	src := rng.New(17, 8)
	const n = 16
	ref := freshFactor(t, src, n)

	c, err := CholeskyFromLower(ref.L())
	if err != nil {
		t.Fatalf("CholeskyFromLower: %v", err)
	}
	if c.Size() != n {
		t.Fatalf("Size = %d, want %d", c.Size(), n)
	}
	rhs := randomVec(src, n)
	got, want := c.SolveVec(rhs), ref.SolveVec(rhs)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("SolveVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Upper-triangle garbage in the input must be ignored.
	dirty := ref.L().Clone()
	dirty.Set(0, n-1, math.NaN())
	c2, err := CholeskyFromLower(dirty)
	if err != nil {
		t.Fatalf("CholeskyFromLower (dirty upper): %v", err)
	}
	bitsEqual(t, c2.L(), c.L(), "upper triangle ignored")

	// Invalid diagonals are rejected, not deferred to a later solve.
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		l := ref.L().Clone()
		l.Set(3, 3, bad)
		if _, err := CholeskyFromLower(l); err == nil {
			t.Fatalf("CholeskyFromLower accepted diagonal %v", bad)
		}
	}
	mustPanic(t, "non-square factor", func() {
		//lint:ignore errcheck the call panics before returning; there is no error to check
		_, _ = CholeskyFromLower(NewDense(3, 4, nil))
	})
}

// mustPanic asserts fn panics.
func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", label)
		}
	}()
	fn()
}

// freshFactor builds the factor of a random n×n SPD matrix.
func freshFactor(t *testing.T, src *rng.Stream, n int) *Cholesky {
	t.Helper()
	return factorOf(t, randomSPD(src, n))
}

// factorOf factors a; calling it twice on the same matrix yields two
// independent but bit-identical factors (factorization is deterministic).
func factorOf(t *testing.T, a *Dense) *Cholesky {
	t.Helper()
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	return c
}

// colMajor flattens b column by column: column j occupies
// [j·rows, (j+1)·rows), the cross-block layout ExtendCols takes.
func colMajor(b *Dense) []float64 {
	r, c := b.Dims()
	out := make([]float64, r*c)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			out[j*r+i] = b.At(i, j)
		}
	}
	return out
}

// spdBlock builds an m×m SPD corner block with diagonal dominance ~diag.
func spdBlock(src *rng.Stream, m int, diag float64) *Dense {
	cc := NewDense(m, m, nil)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			v := src.Norm()
			cc.Set(i, j, v)
			cc.Set(j, i, v)
		}
		cc.Set(i, i, cc.At(i, i)+diag)
	}
	return cc
}
