package mat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// randomSPD builds a random symmetric positive-definite matrix A = GᵀG + n·I.
func randomSPD(src *rng.Stream, n int) *Dense {
	g := randomDense(src, n, n)
	a := mul(transpose(g), g)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func maxDiff(a, b *Dense) float64 {
	var m float64
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > m {
				m = d
			}
		}
	}
	return m
}

func TestCholeskyReconstruction(t *testing.T) {
	src := rng.New(7, 7)
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randomSPD(src, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		recon := mul(c.L(), transpose(c.L()))
		if d := maxDiff(a, recon); d > 1e-8*float64(n) {
			t.Fatalf("n=%d: reconstruction error %v", n, d)
		}
	}
}

func TestCholeskySolveVec(t *testing.T) {
	src := rng.New(8, 8)
	a := randomSPD(src, 12)
	xTrue := randomVec(src, 12)
	b := mulVec(a, xTrue)
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := c.SolveVec(b)
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-8) {
			t.Fatalf("solve mismatch at %d: %v vs %v", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskySolveMatAndInverse(t *testing.T) {
	src := rng.New(9, 9)
	a := randomSPD(src, 8)
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	inv := c.Inverse()
	prod := mul(a, inv)
	if d := maxDiff(prod, Identity(8)); d > 1e-9 {
		t.Fatalf("A·A⁻¹ differs from I by %v", d)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// Diagonal matrix: logdet is the sum of log of diagonal entries.
	d := NewDense(3, 3, nil)
	d.Set(0, 0, 2)
	d.Set(1, 1, 3)
	d.Set(2, 2, 4)
	c, err := NewCholesky(d, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(2) + math.Log(3) + math.Log(4)
	if !almostEq(c.LogDet(), want, 1e-12) {
		t.Fatalf("logdet = %v, want %v", c.LogDet(), want)
	}
}

func TestCholeskyForwardBack(t *testing.T) {
	src := rng.New(10, 10)
	a := randomSPD(src, 6)
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := randomVec(src, 6)
	// back(forward(b)) should equal SolveVec(b).
	y := c.ForwardSolveVec(b)
	x := c.BackSolveVec(y)
	x2 := c.SolveVec(b)
	for i := range x {
		if !almostEq(x[i], x2[i], 1e-12) {
			t.Fatal("forward+back != solve")
		}
	}
	// L·forward(b) == b
	lb := mulVec(c.L(), y)
	for i := range lb {
		if !almostEq(lb[i], b[i], 1e-10) {
			t.Fatal("forward solve incorrect")
		}
	}
}

func TestCholeskyJitterRecovery(t *testing.T) {
	// Rank-deficient matrix needs jitter; it must factorize with jitter > 0.
	n := 5
	x := randomVec(rng.New(11, 11), n)
	a := NewDense(n, n, nil)
	a.SymOuterUpdate(1, x) // rank one
	c, err := NewCholesky(a, 1e-8, 1)
	if err != nil {
		t.Fatalf("jitter escalation failed: %v", err)
	}
	if c.Jitter() <= 0 {
		t.Fatal("expected nonzero jitter for singular matrix")
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 0, 0, -5})
	if _, err := NewCholesky(a, 1e-12, 1e-10); err == nil {
		t.Fatal("expected failure for indefinite matrix with tiny max jitter")
	}
}

// TestRefactorizeNonFiniteDiagonal: a NaN or ±Inf on the diagonal makes
// the default jitter bounds NaN or +Inf, which the jitter escalation
// never passes, so Refactorize must return ErrNotPositiveDefinite at
// once. Each call runs under a 5 s timer that panics, so a regression
// fails the test binary instead of hanging it.
func TestRefactorizeNonFiniteDiagonal(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := NewDense(3, 3, []float64{2, 0.5, 0, 0.5, 2, 0.5, 0, 0.5, 2})
		a.Set(1, 1, v)
		timer := time.AfterFunc(5*time.Second, func() {
			panic(fmt.Sprintf("Refactorize with %v on the diagonal did not return within 5 s", v))
		})
		var c Cholesky
		err := c.Refactorize(a, 0, 0)
		timer.Stop()
		if !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("diagonal %v: err = %v, want ErrNotPositiveDefinite", v, err)
		}
	}
}

func TestCholeskyExtend(t *testing.T) {
	src := rng.New(12, 12)
	for _, tc := range []struct{ n, m int }{{3, 1}, {5, 2}, {10, 4}, {1, 1}} {
		full := randomSPD(src, tc.n+tc.m)
		// Split into blocks.
		a := NewDense(tc.n, tc.n, nil)
		b := NewDense(tc.n, tc.m, nil)
		cc := NewDense(tc.m, tc.m, nil)
		for i := 0; i < tc.n; i++ {
			for j := 0; j < tc.n; j++ {
				a.Set(i, j, full.At(i, j))
			}
			for j := 0; j < tc.m; j++ {
				b.Set(i, j, full.At(i, tc.n+j))
			}
		}
		for i := 0; i < tc.m; i++ {
			for j := 0; j < tc.m; j++ {
				cc.Set(i, j, full.At(tc.n+i, tc.n+j))
			}
		}
		ca, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ext, err := ca.ExtendCols(colMajor(b), cc)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := NewCholesky(full, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(ext.L(), direct.L()); d > 1e-8 {
			t.Fatalf("n=%d m=%d: extended factor differs by %v", tc.n, tc.m, d)
		}
	}
}

func TestCholeskyExtendSolveConsistency(t *testing.T) {
	src := rng.New(13, 13)
	full := randomSPD(src, 9)
	a := NewDense(6, 6, nil)
	b := NewDense(6, 3, nil)
	cc := NewDense(3, 3, nil)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			a.Set(i, j, full.At(i, j))
		}
		for j := 0; j < 3; j++ {
			b.Set(i, j, full.At(i, 6+j))
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			cc.Set(i, j, full.At(6+i, 6+j))
		}
	}
	ca, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := ca.ExtendCols(colMajor(b), cc)
	if err != nil {
		t.Fatal(err)
	}
	rhs := randomVec(src, 9)
	x := ext.SolveVec(rhs)
	back := mulVec(full, x)
	for i := range rhs {
		if !almostEq(back[i], rhs[i], 1e-8) {
			t.Fatalf("extend solve mismatch: %v vs %v", back[i], rhs[i])
		}
	}
}

// TestConcurrentSolvesMatchSerial: solves and extensions only read the
// factor, so one fresh factor may serve many goroutines at once, and each
// must get the bits the same call gets serially. Run under -race by
// scripts/check.sh, this pins the read-only claim.
func TestConcurrentSolvesMatchSerial(t *testing.T) {
	src := rng.New(101, 29)
	const n, calls = 70, 24
	c, err := NewCholesky(randomSPD(src, n), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([][]float64, calls)
	for i := range rhs {
		rhs[i] = randomVec(src, n)
	}
	cc := spdBlock(src, 1, float64(n))
	type result struct{ fwd, back, full, ext []float64 }
	solve := func(b []float64) result {
		ext, err := c.ExtendCols(b, cc)
		if err != nil {
			t.Errorf("ExtendCols: %v", err) // may run off the test goroutine
			return result{}
		}
		return result{c.ForwardSolveVec(b), c.BackSolveVec(b), c.SolveVec(b), ext.L().Data()}
	}
	got := make([]result, calls)
	if err := parallel.ForEach(context.Background(), 4, calls, func(i int) {
		got[i] = solve(rhs[i])
	}); err != nil {
		t.Fatal(err)
	}
	for i, b := range rhs {
		want := solve(b)
		vecBitsEqual(t, got[i].fwd, want.fwd, "concurrent ForwardSolveVec")
		vecBitsEqual(t, got[i].back, want.back, "concurrent BackSolveVec")
		vecBitsEqual(t, got[i].full, want.full, "concurrent SolveVec")
		vecBitsEqual(t, got[i].ext, want.ext, "concurrent ExtendCols")
	}
}

// dotBackSolve is the dot-product back substitution the packed factor
// ran before the right-looking form: x[i] subtracts L[k][i]·x[k] in
// increasing k, one contiguous read of packed column i, then divides by
// its pivot. It stays only as the reference the new order is measured
// against.
func dotBackSolve(c *Cholesky, y []float64) {
	n := c.n
	for i := n - 1; i >= 0; i-- {
		off := colOffset(i, n)
		s := y[i]
		for k, rk := range c.l[off+1 : off+n-i] {
			s -= rk * y[i+1+k]
		}
		y[i] = s / c.l[off]
	}
}

// TestBackSolveAccuracyAgainstDotOrder: the right-looking back solve
// changes only the order in which each entry takes its subtractions, so
// on random SPD factors at n = 33, 184 and 400, and down a three-link
// ExtendCols chain, both the back solve and the full solve stay within
// 1e-12 of the dot-product order, in the max norm relative to the
// dot-product solution's.
func TestBackSolveAccuracyAgainstDotOrder(t *testing.T) {
	src := rng.New(111, 31)
	check := func(c *Cholesky, label string) {
		t.Helper()
		b := randomVec(src, c.Size())
		fwd := c.ForwardSolveVec(b)
		for _, tc := range []struct {
			name     string
			got, rhs []float64
		}{
			{"back", c.BackSolveVec(b), b},
			{"full", c.SolveVec(b), fwd},
		} {
			want := append([]float64(nil), tc.rhs...)
			dotBackSolve(c, want)
			var diff, norm float64
			for i, w := range want {
				diff = math.Max(diff, math.Abs(tc.got[i]-w))
				norm = math.Max(norm, math.Abs(w))
			}
			if !(diff <= 1e-12*norm) {
				t.Errorf("%s %s solve: ‖x_new − x_old‖∞ / ‖x_old‖∞ = %.3g > 1e-12", label, tc.name, diff/norm)
			}
			t.Logf("%s %s solve: relative max-norm difference %.3g", label, tc.name, diff/norm)
		}
	}
	for _, n := range []int{33, 184, 400} {
		c, err := NewCholesky(randomSPD(src, n), 0, 0)
		if err != nil {
			t.Fatalf("n=%d: NewCholesky: %v", n, err)
		}
		check(c, fmt.Sprintf("n=%d", n))
	}
	cur, err := NewCholesky(randomSPD(src, 33), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for link := 0; link < 3; link++ {
		m := 1 + link%2
		cur, err = cur.ExtendCols(colMajor(randomDense(src, cur.Size(), m)), spdBlock(src, m, 33))
		if err != nil {
			t.Fatalf("link %d: ExtendCols: %v", link, err)
		}
		check(cur, fmt.Sprintf("chain link %d (n=%d)", link, cur.Size()))
	}
}

// Property: for any SPD matrix, solving then multiplying round-trips.
func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed, 99)
		n := 1 + int(src.Uint64()%12)
		a := randomSPD(src, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			return false
		}
		b := randomVec(src, n)
		x := c.SolveVec(b)
		ax := mulVec(a, x)
		for i := range b {
			if !almostEq(ax[i], b[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LogDet matches the product of squared diagonal factor entries.
func TestCholeskyLogDetProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed, 7)
		n := 1 + int(src.Uint64()%8)
		a := randomSPD(src, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			return false
		}
		var sum float64
		for i := 0; i < n; i++ {
			sum += 2 * math.Log(c.L().At(i, i))
		}
		return almostEq(c.LogDet(), sum, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCholesky100(b *testing.B) {
	src := rng.New(1, 1)
	a := randomSPD(src, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskyExtend100x4(b *testing.B) {
	src := rng.New(2, 2)
	full := randomSPD(src, 104)
	a := NewDense(100, 100, nil)
	bb := NewDense(100, 4, nil)
	cc := NewDense(4, 4, nil)
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j++ {
			a.Set(i, j, full.At(i, j))
		}
		for j := 0; j < 4; j++ {
			bb.Set(i, j, full.At(i, 100+j))
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			cc.Set(i, j, full.At(100+i, 100+j))
		}
	}
	ca, err := NewCholesky(a, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	bcols := colMajor(bb)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ca.ExtendCols(bcols, cc); err != nil {
			b.Fatal(err)
		}
	}
}
