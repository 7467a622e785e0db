package gp

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/fp"
	"repro/internal/rng"
)

// clampFixture fits a 3-D GP whose fixed noise (1e-18) is far below the
// rounding error of k** − vᵀv, so the computed posterior variance at most
// training points falls below PredictWithGrad's 1e-300 clamp. It returns
// the model and its probes: random points in the box, every training
// point and points far outside the data.
func clampFixture(t testing.TB) (*GP, [][]float64) {
	t.Helper()
	stream := rng.New(4, 2)
	lo, hi := []float64{0, -1, 2}, []float64{1, 1, 5}
	xs := make([][]float64, 24)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = stream.UniformVec(lo, hi)
		ys[i] = math.Sin(3*xs[i][0]) + xs[i][1]*xs[i][2]
	}
	g, err := Fit(xs, ys, Config{Lo: lo, Hi: hi, Noise: 1e-18, Seed: 3, Restarts: 1, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	probes := make([][]float64, 0, 80)
	for i := 0; i < 40; i++ {
		probes = append(probes, stream.UniformVec(lo, hi))
	}
	probes = append(probes, xs...)
	probes = append(probes, []float64{9, 9, -40}, []float64{-3, 0, 3.5}, []float64{0.5, 30, 3})
	return g, probes
}

// TestPredictWithGradValueOnlyBits: PredictWithGrad with nil gradient
// buffers returns the full call's mean and sd bit for bit at random
// points, at training points (where the variance clamp acts) and far
// from the data. The fixture must reach the 1e-300 clamp, sd =
// ystd·√1e-300, so a value-only path that clamped elsewhere (at 0, say)
// would fail here.
func TestPredictWithGradValueOnlyBits(t *testing.T) {
	g, probes := clampFixture(t)
	dMean, dSD := make([]float64, g.Dim()), make([]float64, g.Dim())
	clampSD := g.ystd * math.Sqrt(1e-300)
	clamped := 0
	for _, x := range probes {
		wantMu, wantSD := g.PredictWithGrad(x, dMean, dSD)
		mu, sd := g.PredictWithGrad(x, nil, nil)
		if math.Float64bits(mu) != math.Float64bits(wantMu) || math.Float64bits(sd) != math.Float64bits(wantSD) {
			t.Fatalf("x=%v: value-only (%v, %v), full call (%v, %v)", x, mu, sd, wantMu, wantSD)
		}
		if math.Float64bits(sd) == math.Float64bits(clampSD) {
			clamped++
		}
	}
	if clamped == 0 {
		t.Fatal("fixture never reaches the variance clamp")
	}
}

// TestFitGradReuse pins the fit objective's reuse of a value pass: a
// gradient request at the params of the workspace's last successful value
// pass equals a fresh full evaluation there, and a gradient request at
// other params, after a failed value pass, or after the workspace was
// re-sized for other data at the same params recomputes — each equal to
// a fresh full evaluation of its own point and data.
func TestFitGradReuse(t *testing.T) {
	g, p := fitFixture(t, 40)
	other, _ := fitFixture(t, 40)
	for i := range other.ys {
		other.ys[i] = -other.ys[i] + 0.25*other.x.At(i, 1)
	}
	p2 := append([]float64(nil), p...)
	p2[1] += 0.2
	// One NaN input makes the Gram non-PD at any jitter: a failed value pass.
	badX := g.x.Clone()
	badX.Set(5, 0, math.NaN())

	// fresh returns the negated LML and gradient of a full evaluation on a
	// new workspace.
	fresh := func(g *GP, p []float64) (float64, []float64) {
		ws := fitWorkspaceFor(g, g.x, len(p))
		lml, gr, err := ws.logMarginalLikelihood(g.x, g.ys, p)
		if err != nil {
			t.Fatalf("logMarginalLikelihood: %v", err)
		}
		neg := make([]float64, len(gr))
		for i, v := range gr {
			neg[i] = -v
		}
		return -lml, neg
	}
	check := func(label string, ws *fitWorkspace, g *GP, p []float64) {
		t.Helper()
		wantF, wantG := fresh(g, p)
		grad := make([]float64, len(p))
		f := ws.negLML(g.x, g.ys, p, grad)
		if math.Float64bits(f) != math.Float64bits(wantF) {
			t.Fatalf("%s: value %v, fresh %v", label, f, wantF)
		}
		for i := range grad {
			if math.Float64bits(grad[i]) != math.Float64bits(wantG[i]) {
				t.Fatalf("%s: grad[%d] = %v, fresh %v", label, i, grad[i], wantG[i])
			}
		}
	}

	ws := fitWorkspaceFor(g, g.x, len(p))
	wantF, _ := fresh(g, p)
	if f := ws.negLML(g.x, g.ys, p, nil); math.Float64bits(f) != math.Float64bits(wantF) {
		t.Fatalf("value-only negLML = %v, full evaluation %v", f, wantF)
	}
	check("same params after a value pass", ws, g, p)
	check("repeated gradient request", ws, g, p)

	ws.negLML(g.x, g.ys, p, nil)
	check("other params after a value pass", ws, g, p2)

	ws.negLML(g.x, g.ys, p, nil)
	if f := ws.negLML(badX, g.ys, p, nil); !fp.Exact(f, 1e10) {
		t.Fatalf("value pass on NaN data = %v, want the 1e10 penalty", f)
	}
	check("same params after a failed value pass", ws, g, p)

	ws.negLML(g.x, g.ys, p, nil)
	ws.ensure(other.x.Rows(), other.d, other.cfg.Noise)
	check("same params on other data", ws, other, p)
}

// TestFitObjectiveNaNPenalty: a NaN hyperparameter, which the box clamp
// leaves in place, makes the Gram non-finite, and the fit objective must
// return its 1e10 penalty with a zero gradient rather than spin in the
// Cholesky's jitter escalation. A NaN log variance or log noise puts NaN
// on the Gram's diagonal, a NaN log lengthscale only off it. Each call
// runs under a 5 s timer that panics, so a regression fails the test
// binary instead of hanging it.
func TestFitObjectiveNaNPenalty(t *testing.T) {
	g, p := fitFixture(t, 40)
	for i := range p {
		bad := append([]float64(nil), p...)
		bad[i] = math.NaN()
		ws := fitWorkspaceFor(g, g.x, len(p))
		grad := make([]float64, len(p))
		for j := range grad {
			grad[j] = 1
		}
		timer := time.AfterFunc(5*time.Second, func() {
			panic(fmt.Sprintf("negLML with a NaN at param %d did not return within 5 s", i))
		})
		value := ws.negLML(g.x, g.ys, bad, nil)
		f := ws.negLML(g.x, g.ys, bad, grad)
		timer.Stop()
		if !fp.Exact(value, 1e10) || !fp.Exact(f, 1e10) {
			t.Fatalf("NaN at param %d: value-only %v, with gradient %v, want the 1e10 penalty", i, value, f)
		}
		for j, v := range grad {
			if !fp.Zero(v) {
				t.Fatalf("NaN at param %d: grad[%d] = %v, want 0", i, j, v)
			}
		}
	}
}
