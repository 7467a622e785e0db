package optim

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// quadratic builds a separable convex quadratic with minimum at c. A nil
// g asks for the value only.
func quadratic(c []float64) GradObjective {
	return func(x, g []float64) float64 {
		var f float64
		for i := range x {
			d := x[i] - c[i]
			f += d * d
			if g != nil {
				g[i] = 2 * d
			}
		}
		return f
	}
}

// rosenbrockGrad is the 2-D Rosenbrock function with analytic gradient. A
// nil g asks for the value only.
func rosenbrockGrad(x, g []float64) float64 {
	a, b := x[0], x[1]
	f := 100*(b-a*a)*(b-a*a) + (1-a)*(1-a)
	if g != nil {
		g[0] = -400*a*(b-a*a) - 2*(1-a)
		g[1] = 200 * (b - a*a)
	}
	return f
}

func boxOf(n int, lo, hi float64) ([]float64, []float64) {
	l := make([]float64, n)
	h := make([]float64, n)
	for i := range l {
		l[i], h[i] = lo, hi
	}
	return l, h
}

func TestLBFGSBQuadraticInterior(t *testing.T) {
	lo, hi := boxOf(5, -10, 10)
	c := []float64{1, -2, 3, 0.5, -0.5}
	opt := &LBFGSB{MaxIter: 200}
	res := opt.Minimize(quadratic(c), []float64{5, 5, 5, 5, 5}, lo, hi)
	if !res.Converged {
		t.Fatalf("did not converge: %s", res.StopReason)
	}
	for i := range c {
		if math.Abs(res.X[i]-c[i]) > 1e-5 {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], c[i])
		}
	}
}

func TestLBFGSBActiveBound(t *testing.T) {
	// Unconstrained minimum at 5 but box caps at 2: solution must sit at
	// the bound.
	lo, hi := boxOf(3, -2, 2)
	res := (&LBFGSB{}).Minimize(quadratic([]float64{5, 0, -5}), []float64{0, 0, 0}, lo, hi)
	if math.Abs(res.X[0]-2) > 1e-8 || math.Abs(res.X[2]+2) > 1e-8 {
		t.Fatalf("bound not active: %v", res.X)
	}
	if math.Abs(res.X[1]) > 1e-5 {
		t.Fatalf("interior coordinate wrong: %v", res.X[1])
	}
}

func TestLBFGSBRosenbrock(t *testing.T) {
	lo, hi := boxOf(2, -5, 10)
	res := (&LBFGSB{MaxIter: 500}).Minimize(rosenbrockGrad, []float64{-1.2, 1}, lo, hi)
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Fatalf("rosenbrock solution %v (f=%v, %s)", res.X, res.F, res.StopReason)
	}
}

func TestLBFGSBStartOutsideBoxClamped(t *testing.T) {
	lo, hi := boxOf(2, 0, 1)
	res := (&LBFGSB{}).Minimize(quadratic([]float64{0.5, 0.5}), []float64{100, -100}, lo, hi)
	if math.Abs(res.X[0]-0.5) > 1e-5 || math.Abs(res.X[1]-0.5) > 1e-5 {
		t.Fatalf("solution %v", res.X)
	}
}

func TestLBFGSBDegenerateBox(t *testing.T) {
	// lo == hi pins the variable.
	lo := []float64{1, -3}
	hi := []float64{1, 3}
	res := (&LBFGSB{}).Minimize(quadratic([]float64{5, 2}), []float64{0, 0}, lo, hi)
	if res.X[0] != 1 {
		t.Fatalf("pinned coordinate moved: %v", res.X)
	}
	if math.Abs(res.X[1]-2) > 1e-5 {
		t.Fatalf("free coordinate wrong: %v", res.X)
	}
}

func TestLBFGSBInvalidBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted bounds")
		}
	}()
	(&LBFGSB{}).Minimize(quadratic([]float64{0}), []float64{0}, []float64{1}, []float64{-1})
}

func TestNumGradMatchesAnalytic(t *testing.T) {
	f := func(x []float64) float64 {
		return math.Sin(x[0])*math.Cos(x[1]) + x[0]*x[0]
	}
	ng := NumGrad(f, 1e-6)
	x := []float64{0.7, -0.3}
	g := make([]float64, 2)
	ng(x, g)
	wantG0 := math.Cos(0.7)*math.Cos(-0.3) + 2*0.7
	wantG1 := math.Sin(0.7) * math.Sin(0.3) // ∂/∂x₁ sin(x₀)cos(x₁) at x₁=−0.3
	if math.Abs(g[0]-wantG0) > 1e-6 || math.Abs(g[1]-wantG1) > 1e-6 {
		t.Fatalf("numgrad = %v, want [%v %v]", g, wantG0, wantG1)
	}
}

func TestLBFGSBWithNumGrad(t *testing.T) {
	lo, hi := boxOf(3, -4, 4)
	f := func(x []float64) float64 {
		var s float64
		for i, v := range x {
			s += (v - float64(i)) * (v - float64(i))
		}
		return s
	}
	res := (&LBFGSB{}).Minimize(NumGrad(f, 0), []float64{3, 3, 3}, lo, hi)
	for i := range res.X {
		if math.Abs(res.X[i]-float64(i)) > 1e-4 {
			t.Fatalf("x = %v", res.X)
		}
	}
}

func TestMultiStartFindsGlobal(t *testing.T) {
	// Double-well in 1-D: minima near -1 (f=-1) and +1.2 (deeper).
	f := func(x, g []float64) float64 {
		v := x[0]
		fv := v*v*v*v - v*v - 0.3*v
		if g != nil {
			g[0] = 4*v*v*v - 2*v - 0.3
		}
		return fv
	}
	lo, hi := []float64{-2}, []float64{2}
	stream := rng.New(1, 1)
	ms := &MultiStart{Local: &LBFGSB{MaxIter: 200}}
	starts := DefaultStarts(8, nil, lo, hi, stream)
	res := ms.Run(context.Background(), Shared(f), starts, lo, hi)
	if res.X[0] < 0.5 {
		t.Fatalf("multistart missed global minimum: %v", res.X)
	}
}

// TestMultiStartParallelMatchesSerial: whether the starts run one after
// another (GOMAXPROCS 1, no helper to borrow) or at once (GOMAXPROCS 8),
// MultiStart returns bit for bit what a serial loop over the starts
// returns, with the winner chosen by value and then by start index; and
// every start's objective is requested exactly once, for its own index.
func TestMultiStartParallelMatchesSerial(t *testing.T) {
	lo, hi := boxOf(4, -3, 3)
	c := []float64{1, 1, -1, -1}
	starts := DefaultStarts(6, [][]float64{{0, 0, 0, 0}}, lo, hi, rng.New(2, 2))
	local := &LBFGSB{}
	var want Result
	for i, s := range starts {
		if r := local.Minimize(quadratic(c), s, lo, hi); i == 0 || r.F < want.F {
			want = r
		}
	}
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		calls := make([]int32, len(starts))
		got := (&MultiStart{Local: local}).Run(context.Background(), func(i int, search func(GradObjective)) {
			atomic.AddInt32(&calls[i], 1)
			search(quadratic(c))
		}, starts, lo, hi)
		runtime.GOMAXPROCS(old)
		if math.Float64bits(got.F) != math.Float64bits(want.F) {
			t.Fatalf("procs=%d: F = %v, serial %v", procs, got.F, want.F)
		}
		for j := range want.X {
			if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
				t.Fatalf("procs=%d: X = %v, serial %v", procs, got.X, want.X)
			}
		}
		for i, n := range calls {
			if n != 1 {
				t.Fatalf("procs=%d: start %d's objective requested %d times", procs, i, n)
			}
		}
	}
}

func TestMultiStartNoStartsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic with zero starts")
		}
	}()
	(&MultiStart{Local: &LBFGSB{}}).Run(context.Background(), Shared(quadratic([]float64{0})), nil, []float64{0}, []float64{1})
}

func TestDefaultStartsWithinBox(t *testing.T) {
	lo, hi := boxOf(3, -1, 1)
	anchor := []float64{0.999, -0.999, 0}
	starts := DefaultStarts(10, [][]float64{anchor}, lo, hi, rng.New(3, 3))
	if len(starts) != 11 {
		t.Fatalf("got %d starts", len(starts))
	}
	for _, s := range starts {
		for j := range s {
			if s[j] < lo[j] || s[j] > hi[j] {
				t.Fatalf("start out of box: %v", s)
			}
		}
	}
}

// gradCall is one objective call as Minimize made it: the point and
// whether it asked for a gradient.
type gradCall struct {
	x    []float64
	grad bool
}

// recording wraps f so that every call is logged. With honour set, a nil
// gradient is passed through (value only); without it, the gradient is
// computed into a private buffer anyway, as an objective that ignores the
// value-only contract would.
func recording(f GradObjective, honour bool, calls *[]gradCall) GradObjective {
	return func(x, g []float64) float64 {
		*calls = append(*calls, gradCall{x: append([]float64(nil), x...), grad: g != nil})
		if g == nil && !honour {
			g = make([]float64, len(x))
		}
		return f(x, g)
	}
}

// TestLBFGSBValueOnlyTrials: Minimize returns the same Result, bit for
// bit, whether the objective honours a nil gradient or computes the
// gradient anyway, on analytic and finite-difference objectives and under
// an evaluation budget. Only the start point and the accepted steps ask
// for a gradient: each gradient call after the first repeats the point of
// the trial just before it, so the gradient calls number the accepted
// steps plus one, and they count in neither Evals nor MaxEvals.
func TestLBFGSBValueOnlyTrials(t *testing.T) {
	smooth := func(x []float64) float64 {
		return math.Sin(x[0])*math.Cos(x[1]) + 0.1*x[0]*x[0] + 0.05*x[1]*x[1]*x[1]*x[1]
	}
	lo2, hi2 := boxOf(2, -3, 3)
	lo5, hi5 := boxOf(5, -1, 1)
	cases := []struct {
		name   string
		opt    LBFGSB
		f      GradObjective
		x0     []float64
		lo, hi []float64
	}{
		{"quadratic", LBFGSB{MaxIter: 200}, quadratic([]float64{1, -2, 3, 0.5, -0.5}), []float64{5, 5, 5, 5, 5}, lo5, hi5},
		{"rosenbrock", LBFGSB{MaxIter: 500}, rosenbrockGrad, []float64{-1.2, 1}, lo2, hi2},
		{"rosenbrock-budget", LBFGSB{MaxIter: 50, MaxEvals: 30, MaxLineSearch: 12, GTol: 1e-5}, rosenbrockGrad, []float64{-1.2, 1}, lo2, hi2},
		{"numgrad", LBFGSB{MaxIter: 100}, NumGrad(smooth, 1e-6), []float64{2.5, -2.5}, lo2, hi2},
	}
	for _, tc := range cases {
		var honoured, anyway []gradCall
		got := tc.opt.Minimize(recording(tc.f, true, &honoured), tc.x0, tc.lo, tc.hi)
		want := tc.opt.Minimize(recording(tc.f, false, &anyway), tc.x0, tc.lo, tc.hi)
		if math.Float64bits(got.F) != math.Float64bits(want.F) || got.Iters != want.Iters ||
			got.Evals != want.Evals || got.StopReason != want.StopReason || got.Converged != want.Converged {
			t.Fatalf("%s: honouring nil gives %+v, computing anyway %+v", tc.name, got, want)
		}
		for i := range want.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
				t.Fatalf("%s: X = %v, computing anyway %v", tc.name, got.X, want.X)
			}
		}
		if len(honoured) != len(anyway) {
			t.Fatalf("%s: %d calls honouring nil, %d computing anyway", tc.name, len(honoured), len(anyway))
		}

		gradCalls, accepted := 0, 0
		for i, c := range honoured {
			if !c.grad {
				continue
			}
			gradCalls++
			if i == 0 {
				continue
			}
			prev := honoured[i-1]
			if prev.grad {
				t.Fatalf("%s: call %d asks for a gradient right after another gradient call", tc.name, i)
			}
			for j := range c.x {
				if math.Float64bits(c.x[j]) != math.Float64bits(prev.x[j]) {
					t.Fatalf("%s: gradient call %d at %v, not at the trial %v it accepts", tc.name, i, c.x, prev.x)
				}
			}
			accepted++
		}
		if !honoured[0].grad {
			t.Fatalf("%s: the start point was evaluated without a gradient", tc.name)
		}
		if gradCalls != accepted+1 {
			t.Fatalf("%s: %d gradient calls for %d accepted steps", tc.name, gradCalls, accepted)
		}
		if got.Evals != len(honoured)-accepted {
			t.Fatalf("%s: Evals = %d, want the %d calls less the %d accepted-step gradient calls",
				tc.name, got.Evals, len(honoured), accepted)
		}
		if accepted == 0 {
			t.Fatalf("%s: no step was accepted; the case checks nothing", tc.name)
		}
		if tc.opt.MaxEvals > 0 && got.StopReason != "evaluation budget exhausted" {
			t.Fatalf("%s: stopped by %q, want the evaluation budget", tc.name, got.StopReason)
		}
	}
}
