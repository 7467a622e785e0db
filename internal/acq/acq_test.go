package acq

import (
	"errors"
	"math"
	"testing"

	"repro/internal/gp"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// fit1D builds a 1-D GP on sin(6x) with near-zero noise and returns it
// with its smallest observation, the minimization incumbent.
func fit1D(t *testing.T, xs ...float64) (*gp.GP, float64) {
	t.Helper()
	X := make([][]float64, len(xs))
	y := make([]float64, len(xs))
	best := math.Inf(1)
	for i, x := range xs {
		X[i] = []float64{x}
		y[i] = math.Sin(6 * x)
		best = math.Min(best, y[i])
	}
	g, err := gp.Fit(X, y, gp.Config{Lo: []float64{0}, Hi: []float64{1}, Noise: 1e-8, Seed: 1, Restarts: 1, MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	return g, best
}

// eval is a criterion's value only.
func eval(a Acquisition, g surrogate.Surrogate, x []float64) float64 {
	return a.EvalWithGrad(g, x, nil)
}

func TestEINonNegative(t *testing.T) {
	g, best := fit1D(t, 0.05, 0.25, 0.45, 0.65, 0.85)
	e := &EI{Best: best, Minimize: true}
	for i := 0; i <= 50; i++ {
		x := []float64{float64(i) / 50}
		if v := eval(e, g, x); v < 0 {
			t.Fatalf("EI(%v) = %v < 0", x, v)
		}
	}
}

func TestEINearZeroAtTrainedPoints(t *testing.T) {
	g, best := fit1D(t, 0.1, 0.3, 0.5, 0.7, 0.9)
	e := &EI{Best: best, Minimize: true}
	// At a training point with value worse than the best, EI must be ~0:
	// sin(6x) peaks at x = 0.3 among the training points, the worst for
	// minimization.
	if v := eval(e, g, []float64{0.3}); v > 1e-3 {
		t.Fatalf("EI at worst observed point = %v", v)
	}
}

func TestEIPrefersPromisingRegion(t *testing.T) {
	// sin(6x) has a minimum near x = 3π/12/… precisely at 6x = 3π/2 → x ≈ 0.785.
	g, best := fit1D(t, 0.05, 0.2, 0.35, 0.5, 0.65, 0.95)
	e := &EI{Best: best, Minimize: true}
	nearMin := eval(e, g, []float64{0.78})
	awayMin := eval(e, g, []float64{0.2})
	if nearMin <= awayMin {
		t.Fatalf("EI near minimum %v <= EI away %v", nearMin, awayMin)
	}
}

func TestEIGradFiniteDiff(t *testing.T) {
	g, _ := fit1D(t, 0.1, 0.35, 0.6, 0.85)
	for _, minimize := range []bool{true, false} {
		e := &EI{Best: 0.2, Minimize: minimize}
		grad := make([]float64, 1)
		for _, x0 := range []float64{0.22, 0.47, 0.72} {
			x := []float64{x0}
			v := e.EvalWithGrad(g, x, grad)
			if math.Abs(v-eval(e, g, x)) > 1e-12 {
				t.Fatal("EvalWithGrad value mismatch")
			}
			const h = 1e-6
			num := (eval(e, g, []float64{x0 + h}) - eval(e, g, []float64{x0 - h})) / (2 * h)
			if math.Abs(num-grad[0]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("minimize=%v x=%v: EI grad %v, fd %v", minimize, x0, grad[0], num)
			}
		}
	}
}

func TestUCBGradFiniteDiff(t *testing.T) {
	g, _ := fit1D(t, 0.1, 0.35, 0.6, 0.85)
	for _, minimize := range []bool{true, false} {
		u := &UCB{Beta: 2.5, Minimize: minimize}
		grad := make([]float64, 1)
		for _, x0 := range []float64{0.2, 0.5, 0.8} {
			x := []float64{x0}
			v := u.EvalWithGrad(g, x, grad)
			if math.Abs(v-eval(u, g, x)) > 1e-12 {
				t.Fatal("UCB value mismatch")
			}
			const h = 1e-6
			num := (eval(u, g, []float64{x0 + h}) - eval(u, g, []float64{x0 - h})) / (2 * h)
			if math.Abs(num-grad[0]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("minimize=%v: UCB grad %v, fd %v", minimize, grad[0], num)
			}
		}
	}
}

func TestUCBExplorationWeight(t *testing.T) {
	g, _ := fit1D(t, 0.4, 0.5, 0.6)
	// Far from data the sd dominates: larger beta must increase UCB more
	// at a high-variance point than at a low-variance one.
	lowBeta := &UCB{Beta: 0.5, Minimize: true}
	highBeta := &UCB{Beta: 5, Minimize: true}
	deltaFar := eval(highBeta, g, []float64{0.02}) - eval(lowBeta, g, []float64{0.02})
	deltaNear := eval(highBeta, g, []float64{0.5}) - eval(lowBeta, g, []float64{0.5})
	if deltaFar <= deltaNear {
		t.Fatalf("beta effect: far %v <= near %v", deltaFar, deltaNear)
	}
}

func TestQEIReducesToEIForQ1(t *testing.T) {
	g, best := fit1D(t, 0.05, 0.3, 0.55, 0.8)
	e := &EI{Best: best, Minimize: true}
	q := NewQEI(1, 4096, best, true, rng.New(2, 2))
	for _, x0 := range []float64{0.15, 0.45, 0.7} {
		analytic := eval(e, g, []float64{x0})
		mc := q.EvalBatch(g, [][]float64{{x0}})
		if math.Abs(analytic-mc) > 0.05*(0.01+analytic) {
			t.Fatalf("x=%v: qEI(1) = %v, EI = %v", x0, mc, analytic)
		}
	}
}

func TestQEIMonotoneInBatch(t *testing.T) {
	// Adding a point to the batch cannot decrease qEI (computed with the
	// same base-sample randomness restricted appropriately — here checked
	// statistically with generous tolerance).
	g, best := fit1D(t, 0.05, 0.3, 0.55, 0.8)
	q1 := NewQEI(1, 4096, best, true, rng.New(3, 3))
	q2 := NewQEI(2, 4096, best, true, rng.New(3, 3))
	single := q1.EvalBatch(g, [][]float64{{0.7}})
	double := q2.EvalBatch(g, [][]float64{{0.7}, {0.2}})
	if double < single-0.02 {
		t.Fatalf("qEI decreased when adding a point: %v -> %v", single, double)
	}
}

func TestQEIDeterministicGivenStream(t *testing.T) {
	g, _ := fit1D(t, 0.1, 0.5, 0.9)
	q1 := NewQEI(3, 64, 0, true, rng.New(4, 4))
	q2 := NewQEI(3, 64, 0, true, rng.New(4, 4))
	batch := [][]float64{{0.2}, {0.4}, {0.6}}
	if q1.EvalBatch(g, batch) != q2.EvalBatch(g, batch) {
		t.Fatal("qEI not deterministic for identical streams")
	}
}

func TestQEIFlatObjective(t *testing.T) {
	g, _ := fit1D(t, 0.1, 0.5, 0.9)
	q := NewQEI(2, 64, 0, true, rng.New(5, 5))
	f := q.FlatObjective(g, 1)
	batch := [][]float64{{0.3}, {0.7}}
	if math.Abs(f([]float64{0.3, 0.7})-q.EvalBatch(g, batch)) > 1e-12 {
		t.Fatal("flat objective differs from batch eval")
	}
}

func TestQEIDuplicatePointsFallback(t *testing.T) {
	g, best := fit1D(t, 0.1, 0.5, 0.9)
	q := NewQEI(2, 64, best, true, rng.New(6, 6))
	// Identical points give a singular joint covariance; must not panic
	// and must return a finite value.
	v := q.EvalBatch(g, [][]float64{{0.42}, {0.42}})
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		t.Fatalf("qEI on duplicates = %v", v)
	}
}

// noJointSurrogate is a surrogate whose joint posterior always fails,
// so qEI takes its diagonal fallback; it counts the value calls.
type noJointSurrogate struct {
	surrogate.Surrogate
	calls int
}

func (n *noJointSurrogate) PredictWithGrad(x, dMean, dSD []float64) (float64, float64) {
	n.calls++
	return n.Surrogate.PredictWithGrad(x, dMean, dSD)
}

func (n *noJointSurrogate) PredictJoint([][]float64) (*surrogate.JointPrediction, error) {
	return nil, errors.New("no joint posterior")
}

// TestQEIDiagonalFallbackAsksEachPointOnce: the diagonal fallback asks
// the posterior once per batch point, not once per base sample and
// point, and returns the per-sample formula's bits in both senses.
func TestQEIDiagonalFallbackAsksEachPointOnce(t *testing.T) {
	g, best := fit1D(t, 0.1, 0.5, 0.9)
	batch := [][]float64{{0.2}, {0.45}, {0.8}}
	for _, minimize := range []bool{true, false} {
		q := NewQEI(len(batch), 64, best, minimize, rng.New(8, 8))
		ng := &noJointSurrogate{Surrogate: g}
		got := q.EvalBatch(ng, batch)
		if ng.calls != len(batch) {
			t.Fatalf("minimize=%v: %d value calls for %d points", minimize, ng.calls, len(batch))
		}
		// The formula the fallback had, with the posterior asked inside
		// the sample loop.
		var acc float64
		for _, z := range q.base {
			m := 0.0
			for i, x := range batch {
				mu, sd := g.PredictWithGrad(x, nil, nil)
				yi := mu + sd*z[i]
				imp := yi - best
				if minimize {
					imp = best - yi
				}
				if imp > m {
					m = imp
				}
			}
			acc += m
		}
		if want := acc / float64(len(q.base)); math.Float64bits(got) != math.Float64bits(want) || got <= 0 {
			t.Fatalf("minimize=%v: fallback qEI %v, per-sample formula %v", minimize, got, want)
		}
	}
}

func TestQEIBadBatchSizePanics(t *testing.T) {
	g, _ := fit1D(t, 0.1, 0.9)
	q := NewQEI(2, 16, 0, true, rng.New(7, 7))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong batch size")
		}
	}()
	q.EvalBatch(g, [][]float64{{0.5}})
}
