package gp

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestFantasizeOrderIrrelevant: conditioning on two fantasy points in
// either order yields the same posterior.
func TestFantasizeOrderIrrelevant(t *testing.T) {
	X, y := sample1D(math.Sin, 0.1, 0.4, 0.7, 0.95)
	c := cfg1d()
	c.Noise = 1e-6
	g, err := Fit(X, y, c)
	if err != nil {
		t.Fatal(err)
	}
	a, av := []float64{0.25}, 0.3
	b, bv := []float64{0.55}, -0.2
	g1, err := g.Fantasize(a, av)
	if err != nil {
		t.Fatal(err)
	}
	g1, err = g1.Fantasize(b, bv)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := g.Fantasize(b, bv)
	if err != nil {
		t.Fatal(err)
	}
	g2, err = g2.Fantasize(a, av)
	if err != nil {
		t.Fatal(err)
	}
	for _, xt := range []float64{0.15, 0.5, 0.85} {
		m1, s1 := g1.PredictWithGrad([]float64{xt}, nil, nil)
		m2, s2 := g2.PredictWithGrad([]float64{xt}, nil, nil)
		if math.Abs(m1-m2) > 1e-7*(1+math.Abs(m1)) || math.Abs(s1-s2) > 1e-7*(1+s1) {
			t.Fatalf("order dependence at %v: (%v,%v) vs (%v,%v)", xt, m1, s1, m2, s2)
		}
	}
}

// Property: predictive variance never exceeds the prior variance by more
// than numerical slop, and shrinks (weakly) under conditioning.
func TestVarianceShrinksUnderConditioning(t *testing.T) {
	f := func(seed uint64) bool {
		stream := rng.New(seed, 55)
		n := 4 + int(seed%6)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = []float64{stream.Float64()}
			y[i] = math.Sin(4 * X[i][0])
		}
		c := cfg1d()
		c.Noise = 1e-6
		c.Restarts = 1
		c.MaxIter = 10
		g, err := Fit(X, y, c)
		if err != nil {
			return false
		}
		xq := []float64{stream.Float64()}
		_, sd0 := g.PredictWithGrad(xq, nil, nil)
		xNew := []float64{stream.Float64()}
		mu, _ := g.PredictWithGrad(xNew, nil, nil)
		fg, err := g.Fantasize(xNew, mu)
		if err != nil {
			return false
		}
		_, sd1 := fg.PredictWithGrad(xq, nil, nil)
		return sd1 <= sd0+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: standardization invariance — shifting and scaling the outputs
// shifts and scales the predictions accordingly.
func TestOutputAffineEquivariance(t *testing.T) {
	X, y := sample1D(math.Sin, 0.1, 0.3, 0.5, 0.7, 0.9)
	c := cfg1d()
	c.Noise = 1e-6
	g1, err := Fit(X, y, c)
	if err != nil {
		t.Fatal(err)
	}
	const shift, scale = 42.0, 3.0
	y2 := make([]float64, len(y))
	for i, v := range y {
		y2[i] = shift + scale*v
	}
	g2, err := Fit(X, y2, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, xt := range []float64{0.2, 0.45, 0.8} {
		m1, s1 := g1.PredictWithGrad([]float64{xt}, nil, nil)
		m2, s2 := g2.PredictWithGrad([]float64{xt}, nil, nil)
		if math.Abs(m2-(shift+scale*m1)) > 0.05*(1+math.Abs(m2)) {
			t.Fatalf("mean not equivariant at %v: %v vs %v", xt, m2, shift+scale*m1)
		}
		if math.Abs(s2-scale*s1) > 0.1*(1+s2) {
			t.Fatalf("sd not equivariant at %v: %v vs %v", xt, s2, scale*s1)
		}
	}
}
