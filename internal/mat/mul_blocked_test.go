package mat

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/fp"
	"repro/internal/rng"
)

// sprinkleZeros zeroes ~frac of m's entries so the fp.Zero skip in the
// ikj reference actually fires, forcing the blocked path onto its
// per-k fallback for affected panels.
func sprinkleZeros(src *rng.Stream, m *Dense, frac float64) {
	d := m.Data()
	for i := range d {
		if src.Float64() < frac {
			d[i] = 0
		}
	}
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

// TestMulBlockedMatchesNaive drives the blocked kernel directly against
// the ikj reference across shapes that are deliberately NOT multiples of
// the panel/tile sizes: odd dimensions, rows/cols below one panel, and
// empty matrices. The comparison is bitwise — the blocked path applies
// every per-output-element add in the same increasing-k order as the
// reference, so any divergence at all is a bug.
func TestMulBlockedMatchesNaive(t *testing.T) {
	src := rng.New(7, 11)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 7},
		{5, mulPanelK - 1, 3},                      // k smaller than one panel
		{4, mulPanelK + 3, 9},                      // one panel plus remainder
		{17, 33, 65},                               // odd everything
		{2, 64, mulTileJ + 13},                     // j wider than one tile, with remainder
		{0, 5, 5}, {5, 0, 5}, {5, 5, 0}, {0, 0, 0}, // empty dims
		{65, 67, 63},
	}
	for _, s := range shapes {
		a := randomDense(src, s.m, s.k)
		b := randomDense(src, s.k, s.n)
		sprinkleZeros(src, a, 0.2) // exercise the fp.Zero panel fallback
		want := NewDense(s.m, s.n, nil)
		mulIKJ(want, a, b)
		got := randomDense(src, s.m, s.n) // pre-filled garbage: kernels must zero their rows
		mulBlockedRows(got, a, b, 0, s.m)
		bitsEqual(t, got, want, "blocked")
	}
}

// TestMulBlockedZeroSkipSemantics pins the reason the zero fallback is
// bitwise-load-bearing, not a micro-optimization: the ikj loop skips
// a[i][k] == 0 terms entirely, so 0·Inf never produces a NaN and -0
// contributions never flip a +0 sum. The blocked path must skip exactly
// the same terms.
func TestMulBlockedZeroSkipSemantics(t *testing.T) {
	const m, k, n = 4, 2 * mulPanelK, 6
	a := NewDense(m, k, nil)
	b := NewDense(k, n, nil)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			a.Set(i, kk, float64(i+kk+1))
		}
	}
	for kk := 0; kk < k; kk++ {
		for j := 0; j < n; j++ {
			b.Set(kk, j, 1/float64(kk+j+1))
		}
	}
	// Zero multipliers against infinite B rows: skipped terms must stay
	// skipped (0·Inf = NaN would leak otherwise), including one zero in
	// the middle of a full panel and one in the k-remainder.
	a.Set(1, 3, 0)
	a.Set(2, k-1, 0)
	b.Set(3, 2, math.Inf(1))
	b.Set(k-1, 4, math.Inf(-1))
	// A negative-zero multiplier is also skipped: (-0)·x adds nothing.
	a.Set(3, 5, math.Copysign(0, -1))

	want := NewDense(m, n, nil)
	mulIKJ(want, a, b)
	for _, v := range want.Data() {
		if math.IsNaN(v) {
			t.Fatal("reference product contains NaN; fixture broken")
		}
	}
	got := NewDense(m, n, nil)
	mulBlockedRows(got, a, b, 0, m)
	bitsEqual(t, got, want, "zero-skip")
}

// TestMulIntoDispatch checks the public entry point end to end on both
// sides of the crossover, including the parallel row split: bumping
// GOMAXPROCS above 1 must not change a single bit, because the row
// partition depends only on the row count and every chunk writes a
// disjoint destination range.
func TestMulIntoDispatch(t *testing.T) {
	src := rng.New(3, 9)

	// Small B: stays on the ikj path.
	a := randomDense(src, 20, 30)
	b := randomDense(src, 30, 10)
	want := NewDense(20, 10, nil)
	mulIKJ(want, a, b)
	bitsEqual(t, MulInto(NewDense(20, 10, nil), a, b), want, "small dispatch")

	// Large B (element count above the crossover), skinny A so the test
	// stays fast: takes the blocked path.
	const k, n = 300, 300 // 90000 > mulBlockCrossover
	const m = 2*mulRowChunk + 7
	a = randomDense(src, m, k)
	sprinkleZeros(src, a, 0.1)
	b = randomDense(src, k, n)
	want = NewDense(m, n, nil)
	mulIKJ(want, a, b)
	bitsEqual(t, MulInto(NewDense(m, n, nil), a, b), want, "blocked dispatch")

	// Same product with extra workers: the ForEach row split kicks in
	// (m spans three row chunks) and must reproduce the serial bytes.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	bitsEqual(t, MulInto(NewDense(m, n, nil), a, b), want, "parallel dispatch")
}

// TestAnyZero pins the helper the panel fallback hinges on.
func TestAnyZero(t *testing.T) {
	if anyZero(nil) {
		t.Fatal("anyZero(nil) = true")
	}
	if anyZero([]float64{1, -2, math.Inf(1)}) {
		t.Fatal("anyZero without zeros = true")
	}
	if !anyZero([]float64{1, 0, 3}) {
		t.Fatal("anyZero missed a zero")
	}
	if !anyZero([]float64{math.Copysign(0, -1)}) {
		t.Fatal("anyZero missed a negative zero")
	}
	if got := fp.Zero(math.Copysign(0, -1)); !got {
		t.Fatal("fp.Zero(-0) = false; anyZero contract broken")
	}
}
