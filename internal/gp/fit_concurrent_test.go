package gp

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/optim"
	"repro/internal/rng"
)

// referenceLML is the marginal likelihood and gradient as the fit
// computed them before the radial terms were kept: the Gram from per-pair
// Eval with a mirrored upper triangle, a fresh factor, the full
// A = ααᵀ − K⁻¹ through Scale and SymOuterUpdate, and the gradient trace
// from one EvalWithGrad per pair — serially, or in lmlGradBand-row bands
// whose partials are summed in band order when banded is set.
func referenceLML(kern *kernel.Matern52, noise, cfgNoise float64, x *mat.Dense, y []float64, np int, banded bool) (float64, []float64, error) {
	n := x.Rows()
	k := mat.NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := kern.Eval(x.Row(i), x.Row(j))
			if i == j {
				v += noise
			}
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	ch, err := mat.NewCholesky(k, 0, 0)
	if err != nil {
		return 0, nil, err
	}
	alpha := ch.SolveVec(y)
	lml := -0.5*mat.Dot(y, alpha) - 0.5*ch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
	a := ch.Inverse()
	a.Scale(-1)
	a.SymOuterUpdate(1, alpha)

	nk := kern.NumParams()
	grad := make([]float64, np)
	kg := make([]float64, nk)
	trace := func(part []float64, lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j <= i; j++ {
				kern.EvalWithGrad(x.Row(i), x.Row(j), kg)
				w := a.At(i, j)
				scale := 1.0
				if i != j {
					scale = 2.0
				}
				for t := 0; t < nk; t++ {
					part[t] += 0.5 * scale * w * kg[t]
				}
			}
		}
	}
	if banded {
		for lo := 0; lo < n; lo += lmlGradBand {
			part := make([]float64, nk)
			trace(part, lo, min(lo+lmlGradBand, n))
			for t := range part {
				grad[t] += part[t]
			}
		}
	} else {
		trace(grad[:nk], 0, n)
	}
	if cfgNoise <= 0 {
		var tr float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		grad[nk] = 0.5 * noise * tr
	}
	return lml, grad, nil
}

// TestLMLMatchesPerPairReference: the objective that keeps each pair's
// kernel value and radial derivative from the Gram fill, and builds A on
// the lower triangle only, gives the LML and gradient of the per-pair
// EvalWithGrad reference bit for bit — on the serial trace (n = 33) and
// on the banded one (n = 72, lmlGradBandN forced to 1).
func TestLMLMatchesPerPairReference(t *testing.T) {
	for _, tc := range []struct {
		n      int
		banded bool
	}{{33, false}, {72, true}} {
		g, p := fitFixture(t, tc.n)
		if tc.banded {
			old := lmlGradBandN
			lmlGradBandN = 1
			defer func() { lmlGradBandN = old }()
		}
		ws := fitWorkspaceFor(g, g.x, len(p))
		lml, gr, err := ws.logMarginalLikelihood(g.x, g.ys, p)
		if err != nil {
			t.Fatalf("n=%d: logMarginalLikelihood: %v", tc.n, err)
		}
		kern := kernel.NewMatern52(g.d)
		noise := unpackParams(kern, g.cfg.Noise, p)
		wantLML, want, err := referenceLML(kern, noise, g.cfg.Noise, g.x, g.ys, len(p), tc.banded)
		if err != nil {
			t.Fatalf("n=%d: referenceLML: %v", tc.n, err)
		}
		if math.Float64bits(lml) != math.Float64bits(wantLML) {
			t.Fatalf("n=%d: LML = %v, reference %v", tc.n, lml, wantLML)
		}
		for i := range want {
			if math.Float64bits(gr[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d banded=%v: grad[%d] = %v, reference %v", tc.n, tc.banded, i, gr[i], want[i])
			}
		}
	}
}

// referenceHyper is the hyperparameter search as it ran before the
// starts became concurrent: one GP whose kernel every evaluation of
// every start overwrites, one workspace shared by all of them, the starts
// run one after another in index order, and the winner chosen by value,
// then by start index. It returns the winning packed parameters and
// their LML. (TestLMLMatchesPerPairReference pins the objective itself to
// the per-pair reference.)
func referenceHyper(g *GP, warm []float64) ([]float64, float64) {
	lo, hi := g.packBounds()
	shared := &GP{cfg: g.cfg, d: g.d, kern: kernel.NewMatern52(g.d)}
	ws := new(fitWorkspace)
	ws.ensure(g.x.Rows(), g.d, g.cfg.Noise)
	ws.kern = shared.kern
	obj := func(p, grad []float64) float64 {
		shared.applyParams(p)
		lml, gr, err := ws.logMarginalLikelihood(g.x, g.ys, p)
		if err != nil {
			for i := range grad {
				grad[i] = 0
			}
			return 1e10
		}
		for i := range grad {
			grad[i] = -gr[i]
		}
		return -lml
	}
	maxIter := g.cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 50
	}
	restarts := g.cfg.Restarts
	if restarts < 0 {
		restarts = 0
	} else if restarts == 0 {
		restarts = 2
	}
	if warm != nil {
		restarts /= 2
	}
	var starts [][]float64
	if warm != nil && len(warm) == len(lo) {
		w := mat.CloneVec(warm)
		for i := range w {
			w[i] = math.Min(math.Max(w[i], lo[i]), hi[i])
		}
		starts = append(starts, w)
	} else {
		starts = append(starts, g.defaultParams())
	}
	starts = append(starts, rng.SobolDesign(restarts, lo, hi, rng.New(g.cfg.Seed, 77))...)
	local := &optim.LBFGSB{MaxIter: maxIter, GTol: 1e-5, MaxEvals: 2 * maxIter, MaxLineSearch: 12}
	var best optim.Result
	for i, s := range starts {
		if r := local.Minimize(obj, s, lo, hi); i == 0 || r.F < best.F {
			best = r
		}
	}
	return best.X, -best.F
}

// paperDayData is a training set of the paper day's shape: n = 184
// points in 12 dimensions under the default Config, so Fit runs three
// hyperparameter starts and Refit two.
func paperDayData() ([][]float64, []float64, Config) {
	xs, ys, cfg := benchData(184)
	return xs, ys, Config{Lo: cfg.Lo, Hi: cfg.Hi, Seed: 1}
}

// TestFitConcurrentStartsBitIdentical: a cold Fit and a warm Refit on
// paper-day-shaped data give bit-identical hyperparameters, LML and
// predictions at GOMAXPROCS 1, 2 and 8 — however many of their starts
// ran at once — and both equal the serial shared-objective reference.
func TestFitConcurrentStartsBitIdentical(t *testing.T) {
	xs, ys, cfg := paperDayData()
	probes := [][]float64{xs[3], mat.CloneVec(xs[0]), make([]float64, len(cfg.Lo))}
	for j := range probes[1] {
		probes[1][j] = 0.5*probes[1][j] + 0.25
	}
	type fitted struct {
		hyper []float64
		lml   float64
		pred  []float64
	}
	summarize := func(g *GP) fitted {
		f := fitted{hyper: g.Hyperparameters(), lml: g.LML()}
		for _, x := range probes {
			m, s := g.PredictWithGrad(x, nil, nil)
			f.pred = append(f.pred, m, s)
		}
		return f
	}
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}

	var wantFit, wantRefit fitted
	for k, procs := range []int{1, 2, 8} {
		old := runtime.GOMAXPROCS(procs)
		g, err := Fit(xs[:176], ys[:176], cfg)
		var r *GP
		if err == nil {
			r, err = Refit(g, xs, ys)
		}
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		gotFit, gotRefit := summarize(g), summarize(r)
		if k == 0 {
			wantFit, wantRefit = gotFit, gotRefit
			refFit, refFitLML := referenceHyper(g, nil)
			if !same(gotFit.hyper, refFit) || math.Float64bits(gotFit.lml) != math.Float64bits(refFitLML) {
				t.Fatalf("Fit: hyper %v lml %v, serial reference %v lml %v", gotFit.hyper, gotFit.lml, refFit, refFitLML)
			}
			refRefit, refRefitLML := referenceHyper(r, g.warmParams)
			if !same(gotRefit.hyper, refRefit) || math.Float64bits(gotRefit.lml) != math.Float64bits(refRefitLML) {
				t.Fatalf("Refit: hyper %v lml %v, serial reference %v lml %v", gotRefit.hyper, gotRefit.lml, refRefit, refRefitLML)
			}
			continue
		}
		for _, c := range []struct {
			name      string
			got, want fitted
		}{{"Fit", gotFit, wantFit}, {"Refit", gotRefit, wantRefit}} {
			if !same(c.got.hyper, c.want.hyper) || math.Float64bits(c.got.lml) != math.Float64bits(c.want.lml) || !same(c.got.pred, c.want.pred) {
				t.Fatalf("procs=%d: %s differs from procs=1: hyper %v lml %v pred %v, want %v lml %v pred %v",
					procs, c.name, c.got.hyper, c.got.lml, c.got.pred, c.want.hyper, c.want.lml, c.want.pred)
			}
		}
	}
}
