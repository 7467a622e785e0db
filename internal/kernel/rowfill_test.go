package kernel

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// TestEvalRowAutoBitIdentity fills a block two rows past the parallel
// threshold and checks the parallel split reproduces the serial bytes at
// GOMAXPROCS=1 (the budget has no helper, so the bands run inline) and
// GOMAXPROCS=8 (helper goroutines): the chunk partition depends only on the row
// count and every chunk writes a disjoint destination range, so the
// bits must match exactly either way.
func TestEvalRowAutoBitIdentity(t *testing.T) {
	const d = 3
	const n = ParallelRowThreshold + 2*parallelRowChunk + 137
	stream := rng.New(29, 1)
	_, flat := rowBlock(stream, n, d)
	x := randPoint(stream, d)
	k := NewMatern52(d)

	want := make([]float64, n)
	k.EvalRow(want, x, flat)
	wantD := make([]float64, n)
	wantV := make([]float64, n)
	k.EvalRowRadial(wantV, wantD, x, flat)

	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		got := make([]float64, n)
		EvalRowAuto(k, got, x, flat)
		gotD := make([]float64, n)
		gotV := make([]float64, n)
		EvalRowRadialAuto(k, gotV, gotD, x, flat)
		runtime.GOMAXPROCS(old)

		vecBitsEqual(t, got, want, "EvalRowAuto values")
		vecBitsEqual(t, gotV, wantV, "EvalRowRadialAuto values")
		vecBitsEqual(t, gotD, wantD, "EvalRowRadialAuto radial derivatives")
	}
}

// TestEvalRowAutoBelowThreshold: under the threshold the Auto entry
// points are the serial calls, verbatim.
func TestEvalRowAutoBelowThreshold(t *testing.T) {
	const d, n = 3, 50
	stream := rng.New(31, 2)
	_, flat := rowBlock(stream, n, d)
	x := randPoint(stream, d)
	k := NewMatern52(d)

	want := make([]float64, n)
	k.EvalRow(want, x, flat)
	got := make([]float64, n)
	EvalRowAuto(k, got, x, flat)
	vecBitsEqual(t, got, want, "below-threshold values")

	wantD := make([]float64, n)
	wantV := make([]float64, n)
	k.EvalRowRadial(wantV, wantD, x, flat)
	gotD := make([]float64, n)
	gotV := make([]float64, n)
	EvalRowRadialAuto(k, gotV, gotD, x, flat)
	vecBitsEqual(t, gotV, wantV, "below-threshold radial values")
	vecBitsEqual(t, gotD, wantD, "below-threshold radial derivatives")
}

func vecBitsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}
