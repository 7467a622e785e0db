package core

import (
	"math"
	"testing"

	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// penaltyFixture wraps a 3-D GP in the busy-point penalty with five busy
// points. The GP's fixed 1e-18 noise puts the posterior variance at most
// training points under PredictWithGrad's clamp, and with five factors
// the front-to-back ψ of Predict and the back-to-front ψ of
// PredictWithGrad round differently at some points. It returns the
// wrapper and its probes: random points, training points, the busy
// points themselves and points far from the data.
func penaltyFixture(t *testing.T) (*penaltySurrogate, [][]float64) {
	t.Helper()
	stream := rng.New(12, 4)
	lo, hi := []float64{0, -1, 0}, []float64{2, 1, 1}
	xs := make([][]float64, 20)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = stream.UniformVec(lo, hi)
		ys[i] = math.Sin(2*xs[i][0]) + xs[i][1] - xs[i][2]*xs[i][2]
	}
	g, err := gp.Fit(xs, ys, gp.Config{Lo: lo, Hi: hi, Noise: 1e-18, Seed: 5, Restarts: 1, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	busy := [][]float64{xs[2], stream.UniformVec(lo, hi), stream.UniformVec(lo, hi), xs[9], stream.UniformVec(lo, hi)}
	probes := append([][]float64(nil), xs...)
	probes = append(probes, busy...)
	for i := 0; i < 40; i++ {
		probes = append(probes, stream.UniformVec(lo, hi))
	}
	probes = append(probes, []float64{9, 9, 9}, []float64{-4, 0.5, 0.5})
	return newPenaltySurrogate(g, busy, lo, hi), probes
}

// smoothPoF is an analytic feasibility model, PoF(x) = exp(−|x|²/8),
// that honours the value-only contract.
type smoothPoF struct{}

func (smoothPoF) PoF(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Exp(-s / 8)
}

func (m smoothPoF) PoFWithGrad(x, grad []float64) float64 {
	v := m.PoF(x)
	for j := range grad {
		grad[j] = -x[j] / 4 * v
	}
	return v
}

// TestPenaltyValueOnlyBits: the busy-point penalty's value-only
// PredictWithGrad returns the full call's bits, and so do EI, UCB and
// their feasibility-weighted forms over the penalized surrogate. The
// fixture must hold points where Predict's sd differs from the full
// call's, so a value-only path that delegated to Predict (or built ψ
// front to back) would fail here.
func TestPenaltyValueOnlyBits(t *testing.T) {
	ps, probes := penaltyFixture(t)
	d := len(probes[0])
	dMean, dSD := make([]float64, d), make([]float64, d)
	differs := 0
	for _, x := range probes {
		wantMu, wantSD := ps.PredictWithGrad(x, dMean, dSD)
		mu, sd := ps.PredictWithGrad(x, nil, nil)
		if math.Float64bits(mu) != math.Float64bits(wantMu) || math.Float64bits(sd) != math.Float64bits(wantSD) {
			t.Fatalf("x=%v: value-only (%v, %v), full call (%v, %v)", x, mu, sd, wantMu, wantSD)
		}
		if _, psd := ps.Predict(x); math.Float64bits(psd) != math.Float64bits(wantSD) {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("fixture has no point where Predict and PredictWithGrad differ")
	}

	_, _, best := ps.BestObserved(true)
	base := []acq.Acquisition{&acq.EI{Best: best, Minimize: true}, &acq.UCB{Minimize: true}}
	criteria := append([]acq.Acquisition(nil), base...)
	for _, b := range base {
		criteria = append(criteria, &acq.FeasibilityWeighted{Base: b, Model: smoothPoF{}})
	}
	grad := make([]float64, d)
	for _, a := range criteria {
		for _, x := range probes {
			want := a.EvalWithGrad(ps, x, grad)
			if got := a.EvalWithGrad(ps, x, nil); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s at %v: value-only %v, full call %v", a.Name(), x, got, want)
			}
		}
	}
}

// TestPenaltySurrogateAllocs: the penalty wrapper's PredictWithGrad, full
// and value-only, allocates nothing once its pooled scratch is warm.
func TestPenaltySurrogateAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	ps, probes := penaltyFixture(t)
	x := probes[len(probes)-3]
	dMean, dSD := make([]float64, len(x)), make([]float64, len(x))
	ps.PredictWithGrad(x, dMean, dSD)
	ps.PredictWithGrad(x, nil, nil)
	if got := testing.AllocsPerRun(200, func() { ps.PredictWithGrad(x, dMean, dSD) }); got > 0 {
		t.Fatalf("penalty PredictWithGrad allocates %v times per call, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { ps.PredictWithGrad(x, nil, nil) }); got > 0 {
		t.Fatalf("value-only penalty PredictWithGrad allocates %v times per call, want 0", got)
	}
}
