package acq

import (
	"math"
	"testing"

	"repro/internal/surrogate"
)

// linPoF is a smooth analytic feasibility model: PoF(x) = 1/(1+Σxᵢ²),
// with exact gradient, so product-rule gradients can be checked against
// finite differences without a second GP.
type linPoF struct{}

func (linPoF) PoFWithGrad(x, grad []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	v := 1 / (1 + s)
	for j := range grad {
		grad[j] = -2 * x[j] * v * v
	}
	return v
}

// provider decorates a plain surrogate with a feasibility model, the
// same capability shape the scenario engine's constrained surrogate has.
type provider struct {
	surrogate.Surrogate
	m FeasibilityModel
}

func (p *provider) Feasibility() FeasibilityModel { return p.m }

func TestWeightedPassthroughForPlainSurrogate(t *testing.T) {
	g, best := fit1D(t, 0, 0.3, 0.7, 1)
	base := &EI{Best: best, Minimize: true}
	if got := Weighted(base, g); got != Acquisition(base) {
		t.Fatal("plain surrogate must pass the base criterion through unchanged")
	}
}

func TestWeightedMultipliesByPoF(t *testing.T) {
	g, best := fit1D(t, 0, 0.3, 0.7, 1)
	base := &EI{Best: best, Minimize: true}
	p := &provider{Surrogate: g, m: linPoF{}}
	w := Weighted(base, p)
	if w == Acquisition(base) {
		t.Fatal("constrained surrogate must produce a weighted criterion")
	}
	x := []float64{0.42}
	want := eval(base, g, x) * linPoF{}.PoFWithGrad(x, nil)
	if got := eval(w, g, x); math.Abs(got-want) > 1e-12 {
		t.Fatalf("weighted value = %v, want base·PoF = %v", got, want)
	}
}

func TestFeasibilityWeightedGradFiniteDiff(t *testing.T) {
	g, best := fit1D(t, 0, 0.3, 0.7, 1)
	w := &FeasibilityWeighted{
		Base:  &EI{Best: best, Minimize: true},
		Model: linPoF{},
	}
	grad := make([]float64, 1)
	for _, xv := range []float64{0.15, 0.42, 0.86} {
		x := []float64{xv}
		v := w.EvalWithGrad(g, x, grad)
		const h = 1e-6
		fp := eval(w, g, []float64{xv + h})
		fm := eval(w, g, []float64{xv - h})
		num := (fp - fm) / (2 * h)
		if math.Abs(v-eval(w, g, x)) > 1e-12 {
			t.Fatalf("EvalWithGrad value diverges from the value-only call at %v", xv)
		}
		if math.Abs(grad[0]-num) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("at %v: analytic grad %v, numeric %v", xv, grad[0], num)
		}
	}
}

func TestPoFProduct(t *testing.T) {
	g, _ := fit1D(t, 0, 0.3, 0.7, 1)
	flat := []float64{0.2, 0.5, 0.9}
	if got := PoFProduct(g, flat, 3, 1); got != 1 {
		t.Fatalf("plain surrogate PoFProduct = %v, want 1", got)
	}
	p := &provider{Surrogate: g, m: linPoF{}}
	want := 1.0
	for _, v := range flat {
		want *= linPoF{}.PoFWithGrad([]float64{v}, nil)
	}
	if got := PoFProduct(p, flat, 3, 1); math.Abs(got-want) > 1e-15 {
		t.Fatalf("PoFProduct = %v, want %v", got, want)
	}
}
