package kernel

import (
	"testing"

	"repro/internal/fp"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// rowBlock builds n points of dimension d as both a slice-of-rows view
// and the flat row-major block EvalRow consumes.
func rowBlock(stream *rng.Stream, n, d int) ([][]float64, []float64) {
	rows := make([][]float64, n)
	flat := make([]float64, n*d)
	for i := range rows {
		rows[i] = flat[i*d : (i+1)*d]
		for j := range rows[i] {
			rows[i][j] = stream.Norm()
		}
	}
	return rows, flat
}

// TestEvalRowMatchesEval checks that the batched row kernels are bitwise
// identical to the per-pair entry points they replace: EvalRow vs Eval,
// EvalRowRadial + GradXRows vs Eval + GradX, and EvalRowRadial +
// HyperGrad vs EvalWithGrad. The golden-trace referee depends
// on this equivalence, so the comparison is exact, not tolerance-based.
func TestEvalRowMatchesEval(t *testing.T) {
	const d, n = 6, 40
	stream := rng.New(11, 3)
	rows, flat := rowBlock(stream, n, d)
	x := randPoint(stream, d)
	k := NewMatern52(d)
	// Perturb params so the test is not run at the all-default point.
	p := k.Params(nil)
	for i := range p {
		p[i] += 0.1 * float64(i+1)
	}
	k.SetParams(p)

	dst := make([]float64, n)
	k.EvalRow(dst, x, flat)
	for i := range rows {
		if want := k.Eval(x, rows[i]); !fp.Exact(dst[i], want) {
			t.Fatalf("EvalRow[%d] = %v, Eval = %v", i, dst[i], want)
		}
	}

	// EvalRowRadial keeps EvalRow's values, and its radial derivatives
	// rebuild GradX's input gradient through GradXRows and EvalWithGrad's
	// hyperparameter gradient through HyperGrad.
	dphi := make([]float64, n)
	k.EvalRowRadial(dst, dphi, x, flat)
	grow := make([]float64, n*d)
	k.GradXRows(grow, dphi, x, flat)
	gref := make([]float64, d)
	for i := range rows {
		k.GradX(x, rows[i], gref)
		for j := 0; j < d; j++ {
			if got := grow[i*d+j]; !fp.Exact(got, gref[j]) {
				t.Fatalf("GradXRows grad[%d][%d] = %v, GradX = %v", i, j, got, gref[j])
			}
		}
	}
	hg, want := make([]float64, k.NumParams()), make([]float64, k.NumParams())
	for i := range rows {
		if kv := k.EvalWithGrad(x, rows[i], want); !fp.Exact(dst[i], kv) {
			t.Fatalf("EvalRowRadial value[%d] = %v, EvalWithGrad = %v", i, dst[i], kv)
		}
		k.HyperGrad(hg, x, rows[i], dst[i], dphi[i])
		for j := range want {
			if !fp.Exact(hg[j], want[j]) {
				t.Fatalf("HyperGrad from row %d: grad[%d] = %v, EvalWithGrad = %v", i, j, hg[j], want[j])
			}
		}
	}
}

// TestEvalRowAllocs pins the batched row kernels at zero allocations per
// call: they sit at the bottom of gp.Predict and gp.PredictWithGrad,
// which the hot-path contract (DESIGN.md §9) holds at zero steady-state
// allocations.
func TestEvalRowAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const d, n = 8, 64
	stream := rng.New(12, 4)
	_, flat := rowBlock(stream, n, d)
	x := randPoint(stream, d)
	dst := make([]float64, n)
	dphi := make([]float64, n)
	grow := make([]float64, n*d)
	k := NewMatern52(d)
	if got := testing.AllocsPerRun(100, func() {
		k.EvalRow(dst, x, flat)
	}); got > 0 {
		t.Fatalf("EvalRow allocates %v times per call, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		k.EvalRowRadial(dst, dphi, x, flat)
		k.GradXRows(grow, dphi, x, flat)
	}); got > 0 {
		t.Fatalf("EvalRowRadial + GradXRows allocate %v times per call, want 0", got)
	}
}
