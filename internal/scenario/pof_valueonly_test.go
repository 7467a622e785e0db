package scenario

import (
	"math"
	"testing"

	"repro/internal/acq"
	"repro/internal/gp"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// constrainedFixture builds the composite a constrained cell hands its
// strategy — an objective GP carrying a violation GP's probability of
// feasibility — over 3-D data, with the objective GP's noise fixed at
// 1e-18 so its posterior variance at most training points falls under
// PredictWithGrad's clamp. It returns the composite, the largest
// objective observation and the probes: random points, training points
// and points far from the data.
func constrainedFixture(t *testing.T) (*constrainedSurrogate, float64, [][]float64) {
	t.Helper()
	stream := rng.New(21, 6)
	lo, hi := []float64{0, 0, 0}, []float64{1, 3, 1}
	xs := make([][]float64, 22)
	obj := make([]float64, len(xs))
	vio := make([]float64, len(xs))
	best := math.Inf(-1)
	for i := range xs {
		xs[i] = stream.UniformVec(lo, hi)
		obj[i] = math.Cos(3*xs[i][0]) * xs[i][1]
		vio[i] = xs[i][2] - 0.5 + 0.1*xs[i][1]
		best = math.Max(best, obj[i])
	}
	og, err := gp.Fit(xs, obj, gp.Config{Lo: lo, Hi: hi, Noise: 1e-18, Seed: 7, Restarts: 1, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	vg, err := gp.Fit(xs, vio, gp.Config{Lo: lo, Hi: hi, Seed: 8, Restarts: 1, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	probes := append([][]float64(nil), xs...)
	for i := 0; i < 40; i++ {
		probes = append(probes, stream.UniformVec(lo, hi))
	}
	probes = append(probes, []float64{6, -6, 6}, []float64{0.5, 25, 0.5})
	return &constrainedSurrogate{Surrogate: og, pof: &pofModel{g: vg}}, best, probes
}

// TestConstrainedValueOnlyBits: over the constrained composite, the
// probability of feasibility and every single-point criterion the
// acquisition layer weights by it return the full call's bits when asked
// for the value only.
func TestConstrainedValueOnlyBits(t *testing.T) {
	cs, best, probes := constrainedFixture(t)
	grad := make([]float64, len(probes[0]))
	for _, x := range probes {
		want := cs.pof.PoFWithGrad(x, grad)
		if got := cs.pof.PoFWithGrad(x, nil); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("PoF at %v: value-only %v, full call %v", x, got, want)
		}
	}
	for _, base := range []acq.Acquisition{&acq.EI{Best: best}, &acq.UCB{}, &acq.UCB{Minimize: true}} {
		a := acq.Weighted(base, cs)
		if _, ok := a.(*acq.FeasibilityWeighted); !ok {
			t.Fatalf("%+v over the constrained composite is not feasibility-weighted", base)
		}
		for _, x := range probes {
			want := a.EvalWithGrad(cs, x, grad)
			if got := a.EvalWithGrad(cs, x, nil); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v at %v: value-only %v, full call %v", base, x, got, want)
			}
		}
	}
}

// TestPoFWithGradAllocs: the probability of feasibility with its
// gradient, and value-only, allocates nothing once its pooled scratch is
// warm.
func TestPoFWithGradAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	cs, _, probes := constrainedFixture(t)
	x := probes[len(probes)-3]
	grad := make([]float64, len(x))
	cs.pof.PoFWithGrad(x, grad)
	cs.pof.PoFWithGrad(x, nil)
	if got := testing.AllocsPerRun(200, func() { cs.pof.PoFWithGrad(x, grad) }); got > 0 {
		t.Fatalf("PoFWithGrad allocates %v times per call, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { cs.pof.PoFWithGrad(x, nil) }); got > 0 {
		t.Fatalf("value-only PoFWithGrad allocates %v times per call, want 0", got)
	}
}
