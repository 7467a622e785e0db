package acq

import (
	"math"
	"testing"

	"repro/internal/gp"
	"repro/internal/rng"
)

// TestAcqValueOnlyBits: EI, UCB and their feasibility-weighted forms
// return the full call's bits when asked for the value only, over a
// plain GP at random points, at training points — where the fixture's
// 1e-18 noise puts the posterior variance under PredictWithGrad's clamp —
// and far from the data.
func TestAcqValueOnlyBits(t *testing.T) {
	stream := rng.New(8, 1)
	lo, hi := []float64{0, 0, -2}, []float64{1, 2, 2}
	xs := make([][]float64, 20)
	ys := make([]float64, len(xs))
	best := math.Inf(1)
	for i := range xs {
		xs[i] = stream.UniformVec(lo, hi)
		ys[i] = math.Cos(4*xs[i][0]) - xs[i][1]*xs[i][2]
		best = math.Min(best, ys[i])
	}
	g, err := gp.Fit(xs, ys, gp.Config{Lo: lo, Hi: hi, Noise: 1e-18, Seed: 2, Restarts: 1, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	probes := append([][]float64(nil), xs...)
	for i := 0; i < 30; i++ {
		probes = append(probes, stream.UniformVec(lo, hi))
	}
	probes = append(probes, []float64{7, -5, 10}, []float64{0.5, 40, 0})
	criteria := []Acquisition{
		&EI{Best: best, Minimize: true},
		&EI{Best: best, Xi: 0.01},
		&UCB{Minimize: true},
		&UCB{Beta: 0.5},
	}
	for _, b := range criteria[:4] {
		criteria = append(criteria, &FeasibilityWeighted{Base: b, Model: linPoF{}})
	}
	grad := make([]float64, len(lo))
	for i, a := range criteria {
		for _, x := range probes {
			want := a.EvalWithGrad(g, x, grad)
			if got := a.EvalWithGrad(g, x, nil); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("criterion %d (%T) at %v: value-only %v, full call %v", i, a, x, got, want)
			}
		}
	}
}
