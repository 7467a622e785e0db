// Package gp implements exact Gaussian process regression with a constant
// trend and homoskedastic observation noise — the surrogate model the paper
// uses for every BO algorithm. Inputs are normalized to the unit cube and
// outputs standardized internally; hyperparameters (ARD lengthscales,
// output scale, noise) are fitted by maximizing the log marginal likelihood
// with analytic gradients and a warm-started multi-start bounded L-BFGS.
//
// The package also provides the two operations batch acquisition needs
// beyond plain prediction: joint predictive distributions over q points
// (for Monte-Carlo q-EI) and O(n²) Kriging-Believer "fantasy" updates via
// incremental Cholesky extension.
package gp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// gramParallelN is the fitted-set size at which gramInto splits its row
// fill into parallel.ForEachBand bands. The split is bit-safe at every
// size — each band writes disjoint cells and the batched row fill is
// bitwise-identical to the per-pair loop — so the threshold is purely a
// fan-out-overhead knob. A variable so bit-identity tests can force both
// branches on small fixtures.
var gramParallelN = 512

// gramRowBand is the contiguous row-band granularity of the parallel
// Gram fill. The partition depends only on the row count, never on the
// worker count.
const gramRowBand = 64

// lmlGradBandN gates the banded gradient-trace reduction in
// logMarginalLikelihood. Unlike the Gram fill, the banded path fixes a
// DIFFERENT (though still deterministic) floating-point association than
// the seed's single serial left-fold over all pairs: per-band partials
// are summed in band order. The gate therefore keeps small-n fits —
// including every golden-trace fixture — on the legacy serial DAG
// byte-for-byte, while FitSubsetMax-scale fits get a partition that
// depends only on n and is identical for every GOMAXPROCS. A variable so
// bit-identity tests can force both branches on small fixtures.
var lmlGradBandN = 512

// lmlGradBand is the row-band granularity of the banded gradient trace.
const lmlGradBand = 64

// Config controls GP construction and hyperparameter fitting. The
// covariance is always the paper's ARD Matérn-5/2 kernel.
type Config struct {
	// Bounds are the lower/upper corners of the design space, used to
	// normalize inputs to the unit cube. Required.
	Lo, Hi []float64
	// Noise fixes the observation noise variance (standardized-output
	// scale) when > 0; when 0, noise is fitted as a hyperparameter.
	Noise float64
	// Restarts is the number of random restarts for hyperparameter
	// optimization in addition to the warm start (default 2).
	Restarts int
	// MaxIter bounds L-BFGS iterations per restart (default 50).
	MaxIter int
	// FitSubsetMax caps the number of points used during marginal
	// likelihood optimization (0 = no cap). Prediction always uses all
	// data. This implements the paper's §4 "use subsets of data"
	// recommendation and keeps large-batch runs tractable.
	FitSubsetMax int
	// Seed derives the deterministic streams used in fitting.
	Seed uint64
}

func (c *Config) validate() error {
	if len(c.Lo) == 0 || len(c.Lo) != len(c.Hi) {
		return fmt.Errorf("gp: invalid bounds (lo %d, hi %d)", len(c.Lo), len(c.Hi))
	}
	for i := range c.Lo {
		if !(c.Lo[i] < c.Hi[i]) {
			return fmt.Errorf("gp: bounds[%d] = [%v, %v] not increasing", i, c.Lo[i], c.Hi[i])
		}
	}
	return nil
}

// Hyperparameter bounds in log space on normalized inputs/outputs.
var (
	logVarLo, logVarHi     = math.Log(0.02), math.Log(20.0)
	logLenLo, logLenHi     = math.Log(0.01), math.Log(4.0)
	logNoiseLo, logNoiseHi = math.Log(1e-6), math.Log(1e-1)
)

// GP is a fitted Gaussian process model. It is immutable after Fit;
// Fantasize returns derived models sharing hyperparameters.
type GP struct {
	cfg  Config
	kern *kernel.Matern52
	d    int

	x     *mat.Dense // normalized inputs, n×d
	ymean float64    // output standardization
	ystd  float64
	ys    []float64 // standardized outputs

	noise float64 // noise variance in standardized space
	chol  *mat.Cholesky
	alpha []float64 // (K+σ²I)⁻¹ ys

	warmParams []float64 // packed [kernel params..., logNoise] for refits
	fitLML     float64   // LML achieved at fit time

	ws *sync.Pool // *predictWorkspace scratch sized for this model's (n, d)
}

// predictWorkspace is the per-call scratch of the prediction hot path. It
// is recycled through the model's sync.Pool, so steady-state
// PredictWithGrad performs zero heap allocations. Workspaces are sized for
// one fitted model and never shared across models; nothing in a workspace
// escapes a Predict* call.
type predictWorkspace struct {
	u      []float64 // d: normalized query point
	ks     []float64 // n: cross-covariance k★
	dphi   []float64 // n: dφ/d(r²) of each k★ entry
	v      []float64 // n: L⁻¹k★
	w      []float64 // n: K⁻¹k★
	kg     []float64 // n·d: ∂k(u, x_i)/∂u rows where GradXSum runs its Go loop
	dMeanU []float64 // d: mean gradient accumulator (normalized space)
	dVarU  []float64 // d: variance gradient accumulator

	// The value half of the last PredictWithGrad: the standardized mean and
	// sd at u. While valueOK holds, the last use of the workspace was a
	// value-only PredictWithGrad at the normalized point valueU, and u, ks,
	// dphi, v, mu and sdStd are that call's, so a gradient request at
	// exactly valueU — L-BFGS asking for the gradient of the trial it has
	// just accepted — needs only the gradient half. Every other use of the
	// workspace clears valueOK.
	mu, sdStd float64
	valueU    []float64 // d
	valueOK   bool
}

// initWorkspacePool equips a conditioned model with its scratch pool. Must
// be called exactly once, after g.x is final.
func (g *GP) initWorkspacePool() {
	n, d := g.x.Rows(), g.d
	g.ws = &sync.Pool{New: func() any {
		return &predictWorkspace{
			u:      make([]float64, d),
			ks:     make([]float64, n),
			dphi:   make([]float64, n),
			v:      make([]float64, n),
			w:      make([]float64, n),
			kg:     make([]float64, n*d),
			dMeanU: make([]float64, d),
			dVarU:  make([]float64, d),
			valueU: make([]float64, d),
		}
	}}
}

// ErrEmptyData is returned when fitting with no observations.
var ErrEmptyData = errors.New("gp: no training data")

var _ surrogate.Surrogate = (*GP)(nil)

// Fit trains a GP on the given raw-space observations.
func Fit(xs [][]float64, ys []float64, cfg Config) (*GP, error) {
	return fitWarm(xs, ys, cfg, nil)
}

// Refit trains a new GP on updated data, warm-starting hyperparameter
// optimization from a previously fitted model. This is how the BO loop
// refits the surrogate each cycle.
func Refit(prev *GP, xs [][]float64, ys []float64) (*GP, error) {
	if prev == nil {
		panic("gp: Refit with nil previous model")
	}
	return fitWarm(xs, ys, prev.cfg, prev.warmParams)
}

// WithData conditions a new GP on updated data while keeping the previous
// model's hyperparameters fixed — a factorize-only refit, O(n³) but with
// no marginal-likelihood optimization. BO engines alternate WithData with
// full Refit calls to bound the per-cycle fitting cost.
func WithData(prev *GP, xs [][]float64, ys []float64) (*GP, error) {
	if prev == nil {
		panic("gp: WithData with nil previous model")
	}
	n := len(xs)
	if n == 0 || n != len(ys) {
		return nil, ErrEmptyData
	}
	cfg := prev.cfg
	d := len(cfg.Lo)
	g := &GP{cfg: cfg, d: d, kern: prev.kern, noise: prev.noise,
		warmParams: prev.warmParams, fitLML: prev.fitLML}
	g.x = mat.NewDense(n, d, nil)
	for i, p := range xs {
		if len(p) != d {
			return nil, fmt.Errorf("gp: point %d has dim %d, want %d", i, len(p), d)
		}
		row := g.x.Row(i)
		for j := range p {
			row[j] = (p[j] - cfg.Lo[j]) / (cfg.Hi[j] - cfg.Lo[j])
		}
	}
	// Keep the previous output standardization: hyperparameters were
	// fitted against it.
	g.ymean, g.ystd = prev.ymean, prev.ystd
	g.ys = make([]float64, n)
	for i, v := range ys {
		g.ys[i] = (v - g.ymean) / g.ystd
	}
	if err := g.factorize(); err != nil {
		return nil, err
	}
	return g, nil
}

func fitWarm(xs [][]float64, ys []float64, cfg Config, warm []float64) (*GP, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(xs)
	if n == 0 || n != len(ys) {
		return nil, ErrEmptyData
	}
	d := len(cfg.Lo)
	g := &GP{cfg: cfg, d: d, kern: kernel.NewMatern52(d)}

	// Normalize inputs and standardize outputs.
	g.x = mat.NewDense(n, d, nil)
	for i, p := range xs {
		if len(p) != d {
			return nil, fmt.Errorf("gp: point %d has dim %d, want %d", i, len(p), d)
		}
		row := g.x.Row(i)
		for j := range p {
			row[j] = (p[j] - cfg.Lo[j]) / (cfg.Hi[j] - cfg.Lo[j])
		}
	}
	g.ymean, g.ystd = meanStd(ys)
	if g.ystd < 1e-12 {
		g.ystd = 1 // constant outputs: keep scale identity
	}
	g.ys = make([]float64, n)
	for i, v := range ys {
		g.ys[i] = (v - g.ymean) / g.ystd
	}

	if err := g.optimizeHyper(warm); err != nil {
		return nil, err
	}
	if err := g.factorize(); err != nil {
		return nil, err
	}
	return g, nil
}

func meanStd(v []float64) (mean, std float64) {
	n := float64(len(v))
	for _, x := range v {
		mean += x
	}
	mean /= n
	for _, x := range v {
		std += (x - mean) * (x - mean)
	}
	if len(v) > 1 {
		std = math.Sqrt(std / (n - 1))
	}
	return mean, std
}

// packParams returns [kernelParams..., logNoise?]. Noise is only a free
// parameter when cfg.Noise <= 0.
func (g *GP) packBounds() (lo, hi []float64) {
	lo = append(lo, logVarLo)
	hi = append(hi, logVarHi)
	for i := 0; i < g.d; i++ {
		lo = append(lo, logLenLo)
		hi = append(hi, logLenHi)
	}
	if g.cfg.Noise <= 0 {
		lo = append(lo, logNoiseLo)
		hi = append(hi, logNoiseHi)
	}
	return lo, hi
}

func (g *GP) applyParams(p []float64) {
	g.noise = unpackParams(g.kern, g.cfg.Noise, p)
}

// unpackParams sets kern from the packed vector p and returns the noise
// variance p carries: cfgNoise when the configuration fixes it, else the
// exponential of p's last entry.
func unpackParams(kern *kernel.Matern52, cfgNoise float64, p []float64) float64 {
	nk := kern.NumParams()
	kern.SetParams(p[:nk])
	if cfgNoise > 0 {
		return cfgNoise
	}
	return math.Exp(p[nk])
}

func (g *GP) defaultParams() []float64 {
	p := make([]float64, 0, g.kern.NumParams()+1)
	p = append(p, 0) // log σ² = 0
	for i := 0; i < g.d; i++ {
		p = append(p, math.Log(0.3)) // moderate lengthscale on unit cube
	}
	if g.cfg.Noise <= 0 {
		p = append(p, math.Log(1e-4))
	}
	return p
}

// optimizeHyper maximizes the log marginal likelihood over packed params.
func (g *GP) optimizeHyper(warm []float64) error {
	lo, hi := g.packBounds()

	// Subset of data for the LML objective when configured and large.
	fitX, fitY := g.x, g.ys
	if m := g.cfg.FitSubsetMax; m > 0 && g.x.Rows() > m {
		stream := rng.New(g.cfg.Seed, 101)
		perm := stream.Perm(g.x.Rows())[:m]
		fitX = mat.NewDense(m, g.d, nil)
		fitY = make([]float64, m)
		for i, idx := range perm {
			copy(fitX.Row(i), g.x.Row(idx))
			fitY[i] = g.ys[idx]
		}
	}

	// Each start owns a pooled workspace — its own kernel, noise and O(n²)
	// buffers — taken when the start begins and returned when its search
	// ends, so the objective is a pure function of its parameters and the
	// starts can run at once: there is one live workspace per running
	// start, and successive fits at the same n reuse the buffers through
	// fitPool. Nothing the objective returns aliases the workspace (it
	// copies the gradient). The winner is applied to the GP once, below.
	nFit := fitX.Rows()
	objective := func(_ int, search func(optim.GradObjective)) {
		ws := fitPool.Get().(*fitWorkspace)
		ws.ensure(nFit, g.d, g.cfg.Noise)
		search(func(p, grad []float64) float64 {
			return ws.negLML(fitX, fitY, p, grad)
		})
		fitPool.Put(ws)
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
		// Warm-started refits already sit near a good optimum; spend the
		// random-restart budget sparingly.
		restarts /= 2
	}

	starts := make([][]float64, 0, restarts+1)
	if warm != nil && len(warm) == len(lo) {
		w := mat.CloneVec(warm)
		for i := range w {
			w[i] = math.Min(math.Max(w[i], lo[i]), hi[i])
		}
		starts = append(starts, w)
	} else {
		starts = append(starts, g.defaultParams())
	}
	stream := rng.New(g.cfg.Seed, 77)
	starts = append(starts, rng.SobolDesign(restarts, lo, hi, stream)...)

	ms := &optim.MultiStart{Local: &optim.LBFGSB{MaxIter: maxIter, GTol: 1e-5, MaxEvals: 2 * maxIter, MaxLineSearch: 12}}
	res := ms.Run(context.Background(), objective, starts, lo, hi)
	g.applyParams(res.X)
	g.warmParams = mat.CloneVec(res.X)
	g.fitLML = -res.F
	return nil
}

// gramInto fills k (n×n) for the kernel kern and noise variance noise
// over the rows of x and returns it. The lower triangle holds the Gram
// K(X,X) + noise·I, each row from the batched kernel.EvalRowRadial fill —
// bitwise-identical to the per-pair Eval loop (see
// TestGramIntoMatchesPerPair). The strict upper triangle does not hold
// K: it holds each off-diagonal pair's radial derivative dφ/d(r²), which the
// marginal-likelihood gradient reuses instead of recomputing r², the root
// and the exponential per pair. Row i's i values sit in the last i cells
// of row n−1−i (radialRow), so both the fill and the gradient trace
// stream them contiguously. The Cholesky reads only the lower triangle.
// Above gramParallelN the fill splits over deterministic row bands; a
// band writes lower row i and upper row n−1−i for its own rows only, so
// the filled matrix is bitwise identical to the serial fill for any
// GOMAXPROCS.
func gramInto(kern *kernel.Matern52, noise float64, k *mat.Dense, x *mat.Dense) *mat.Dense {
	n := x.Rows()
	if n >= gramParallelN {
		// The closure escapes into the fan-out; it is only materialized on
		// this branch so the sub-threshold path — every objective
		// evaluation of a small fit — stays allocation-free
		// (TestFitObjectiveAllocs).
		if err := parallel.ForEachBand(context.Background(), 0, n, gramRowBand, func(lo, hi int) {
			gramFillRows(kern, noise, k, x, lo, hi)
		}); err != nil {
			panic(err) // unreachable: the background context is never cancelled
		}
	} else {
		gramFillRows(kern, noise, k, x, 0, n)
	}
	return k
}

// gramFillRows fills rows [lo, hi) of k's lower triangle (noise on the
// diagonal, where k(x, x) = σ²) and their radial derivatives.
func gramFillRows(kern *kernel.Matern52, noise float64, k *mat.Dense, x *mat.Dense, lo, hi int) {
	d := x.Cols()
	xd := x.Data()
	for i := lo; i < hi; i++ {
		row := k.Row(i)[:i+1]
		kern.EvalRowRadial(row[:i], radialRow(k, i), x.Row(i), xd[:i*d])
		row[i] = kern.Variance() + noise
	}
}

// radialRow returns the i cells of k's strict upper triangle that hold
// the radial derivatives of row i's off-diagonal pairs (i, j<i): the tail
// of row n−1−i, whose strict-upper part is exactly i cells long.
func radialRow(k *mat.Dense, i int) []float64 {
	n := k.Rows()
	r := n - 1 - i
	return k.Data()[r*n+r+1 : r*n+n]
}

// negLML is one start's L-BFGS objective: the negated LML at p, with its
// negated gradient written into grad unless grad is nil. A value-only
// request runs only the value half. A gradient request at the params of
// the workspace's last successful value pass — L-BFGS asking for the
// gradient of the trial it has just accepted — runs only the gradient
// half on what that pass left; any other gradient request runs both. A
// failed factorization returns a large penalty with a zero gradient.
func (ws *fitWorkspace) negLML(x *mat.Dense, y, p, grad []float64) float64 {
	var lml float64
	var gr []float64
	var err error
	switch {
	case grad == nil:
		lml, err = ws.lmlValue(x, y, p)
	case ws.valueAt(p):
		lml, gr = ws.lml, ws.lmlGrad(x, len(p))
	default:
		lml, gr, err = ws.logMarginalLikelihood(x, y, p)
	}
	if err != nil {
		// Non-PD even after jitter: return a large penalty pushing away.
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

// logMarginalLikelihood evaluates the LML and its gradient w.r.t. packed
// params p on the given (normalized) data with the workspace's own
// kernel and noise, using the workspace for every O(n²) intermediate: the
// value half, then the gradient half. It reads nothing a previous
// evaluation left behind, so its bits depend only on (x, y, p). The
// returned gradient aliases ws.grad and is only valid until the next
// evaluation against the same workspace.
func (ws *fitWorkspace) logMarginalLikelihood(x *mat.Dense, y []float64, p []float64) (float64, []float64, error) {
	lml, err := ws.lmlValue(x, y, p)
	if err != nil {
		return 0, nil, err
	}
	return lml, ws.lmlGrad(x, len(p)), nil
}

// lmlValue is the value half of an LML evaluation at p: it sets the
// kernel and noise from p, fills the Gram, factorizes it and solves for
// α. The Gram, factor and α stay on the workspace for lmlGrad, and p is
// recorded as their params once the factorization succeeds.
func (ws *fitWorkspace) lmlValue(x *mat.Dense, y []float64, p []float64) (float64, error) {
	ws.valueOK = false
	ws.noise = unpackParams(ws.kern, ws.cfgNoise, p)
	n := x.Rows()
	k := gramInto(ws.kern, ws.noise, ws.gram, x)
	if err := ws.chol.Refactorize(k, 0, 0); err != nil {
		return 0, err
	}
	ch := &ws.chol
	alpha := ch.SolveVecInto(ws.alpha, y)
	ws.lml = -0.5*mat.Dot(y, alpha) - 0.5*ch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
	copy(ws.valueP, p)
	ws.valueOK = true
	return ws.lml, nil
}

// valueAt reports whether the workspace holds a successful value pass at
// exactly p, bit for bit.
func (ws *fitWorkspace) valueAt(p []float64) bool {
	return ws.valueOK && sameBits(p, ws.valueP)
}

// lmlGrad is the gradient half of an LML evaluation over x with np packed
// params: it reads the kernel, noise, Gram, factor and α the value half
// left on the workspace and returns the gradient, aliasing ws.grad.
func (ws *fitWorkspace) lmlGrad(x *mat.Dense, np int) []float64 {
	n := x.Rows()
	alpha := ws.alpha
	// Gradient: ∂LML/∂θ = ½ tr((ααᵀ − K⁻¹)·∂K/∂θ).
	// A = ααᵀ − K⁻¹ (symmetric), built in place over the pooled inverse.
	// The trace reads only j ≤ i, so only the lower triangle is built.
	a := ws.chol.InverseInto(ws.inv, ws.wt)
	for i := 0; i < n; i++ {
		arow := a.Row(i)[:i+1]
		ai := alpha[i]
		for j := range arow {
			arow[j] = arow[j]*-1 + ai*alpha[j]
		}
	}

	nk := ws.kern.NumParams()
	grad := ws.grad[:np]
	for t := range grad {
		grad[t] = 0
	}
	if n >= lmlGradBandN {
		// Banded trace: band b accumulates the partial over its rows' (i, j≤i)
		// pairs into its private slot — in-band order identical to the serial
		// loop — and the partials are reduced in fixed band order below. The
		// partition depends only on n, so the result is bit-identical for any
		// GOMAXPROCS (but deliberately not to the sub-threshold serial fold;
		// the gate keeps golden-trace fits below it).
		bandGrad, bandKg, stride := ws.bandGrad, ws.bandKg, bandStride(nk)
		if err := parallel.ForEachBand(context.Background(), 0, n, lmlGradBand, func(lo, hi int) {
			b := lo / lmlGradBand
			part := bandGrad[b*stride : b*stride+nk]
			for t := range part {
				part[t] = 0
			}
			ws.traceRows(part, bandKg[b*stride:b*stride+nk], a, x, lo, hi)
		}); err != nil {
			panic(err) // unreachable: the background context is never cancelled
		}
		nb := (n + lmlGradBand - 1) / lmlGradBand
		for b := 0; b < nb; b++ {
			part := bandGrad[b*stride : b*stride+nk]
			for t := 0; t < nk; t++ {
				grad[t] += part[t]
			}
		}
	} else {
		ws.traceRows(grad[:nk], ws.kg[:nk], a, x, 0, n)
	}
	if ws.cfgNoise <= 0 {
		// ∂K/∂ log σₙ² = σₙ²·I.
		var tr float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		grad[nk] = 0.5 * ws.noise * tr
	}
	return grad
}

// traceRows adds ½·scale·A[i][j]·∂k(x_i, x_j)/∂θ over the pairs (i, j≤i)
// of rows [lo, hi) into part (length NumParams()), in increasing i and j,
// with scale 2 off the diagonal (the mirrored pair) and 1 on it. kg is
// per-pair scratch of the same length. Each off-diagonal pair's kernel
// value and radial derivative come from the Gram gramInto filled, so
// the kernel only rebuilds the per-dimension terms (kernel.HyperGradSum,
// one call per row); the diagonal, where the Gram also carries the
// noise, is evaluated directly and added last. Either way the per-pair
// gradient is EvalWithGrad's, bit for bit.
func (ws *fitWorkspace) traceRows(part, kg []float64, a, x *mat.Dense, lo, hi int) {
	k := ws.gram
	xd := x.Data()
	d := x.Cols()
	for i := lo; i < hi; i++ {
		xi := x.Row(i)
		arow := a.Row(i)
		// The symmetric off-diagonal pairs, counted twice.
		ws.kern.HyperGradSum(part, kg, xi, xd[:i*d], k.Row(i)[:i], radialRow(k, i), arow[:i], 2.0)
		ws.kern.EvalWithGrad(xi, xi, kg)
		addPair(part, kg, arow[i], 1.0)
	}
}

// addPair adds ½·scale·w·kg[t] to part[t] for every t.
func addPair(part, kg []float64, w, scale float64) {
	kg = kg[:len(part)]
	for t := range part {
		part[t] += 0.5 * scale * w * kg[t]
	}
}

// factorize computes the full-data Cholesky and alpha for prediction.
func (g *GP) factorize() error {
	n := g.x.Rows()
	k := gramInto(g.kern, g.noise, mat.NewDense(n, n, nil), g.x)
	ch, err := mat.NewCholesky(k, 0, 0)
	if err != nil {
		return fmt.Errorf("gp: final factorization failed: %w", err)
	}
	g.chol = ch
	g.alpha = ch.SolveVec(g.ys)
	g.initWorkspacePool()
	return nil
}

// N returns the number of training points.
func (g *GP) N() int { return g.x.Rows() }

// Dim returns the input dimension.
func (g *GP) Dim() int { return g.d }

// LML returns the log marginal likelihood achieved during fitting.
func (g *GP) LML() float64 { return g.fitLML }

// Noise returns the fitted (or fixed) noise variance in standardized space.
func (g *GP) Noise() float64 { return g.noise }

// Lengthscales implements surrogate.Surrogate: the fitted ARD lengthscales
// on the normalized unit cube, one per input dimension.
func (g *GP) Lengthscales() []float64 { return g.kern.Lengthscales() }

// Hyperparameters returns the packed log-hyperparameters (kernel params
// followed by log-noise when fitted).
func (g *GP) Hyperparameters() []float64 { return mat.CloneVec(g.warmParams) }

// normalizeInto maps a raw-space point to the unit cube, writing into the
// caller's buffer (length d).
func (g *GP) normalizeInto(dst, x []float64) {
	if len(x) != g.d {
		panic(fmt.Sprintf("gp: point dim %d != %d", len(x), g.d))
	}
	for j := range x {
		dst[j] = (x[j] - g.cfg.Lo[j]) / (g.cfg.Hi[j] - g.cfg.Lo[j])
	}
}

// PredictWithGrad returns the posterior mean and sd at x and writes their
// gradients with respect to x (raw space) into the caller-provided dMean
// and dSD (length Dim). Used by gradient-based EI/UCB optimization; the
// destination-passing contract keeps it allocation-free in steady state.
//
// With dMean and dSD both nil it returns the value only: the same code
// without the k★ gradient rows, the back solve and the gradient loop, so
// the bits are the full call's; it is the model's one value path. A
// gradient request at the point of a value-only call just before it
// reuses that call's value half, again with the full call's bits.
func (g *GP) PredictWithGrad(x []float64, dMean, dSD []float64) (mean, sd float64) {
	valueOnly := dMean == nil && dSD == nil
	if !valueOnly && (len(dMean) != g.d || len(dSD) != g.d) {
		panic(fmt.Sprintf("gp: gradient buffer lengths %d,%d != %d", len(dMean), len(dSD), g.d))
	}
	ws := g.ws.Get().(*predictWorkspace)
	g.normalizeInto(ws.u, x)
	// Both halves read nothing but the model and the normalized point, so
	// a value half reused at the same bits is a fresh call's.
	if valueOnly || !ws.valueOK || !sameBits(ws.u, ws.valueU) {
		g.posteriorValue(ws)
	}
	ws.valueOK = valueOnly
	if valueOnly {
		copy(ws.valueU, ws.u)
	} else {
		g.posteriorGrad(ws, dMean, dSD)
	}
	mean, sd = g.ymean+g.ystd*ws.mu, g.ystd*ws.sdStd
	g.ws.Put(ws)
	return mean, sd
}

// sameBits reports whether a and b hold the same float64 bits, element
// by element.
func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// posteriorValue is the value half of PredictWithGrad at ws.u: one pass
// over the training block fills k★ and every entry's radial derivative
// (EvalRowRadial's k★ values are EvalRow's, bit for bit), then the forward
// solve, the standardized mean and the sd with the variance clamped at
// 1e-300.
func (g *GP) posteriorValue(ws *predictWorkspace) {
	g.kern.EvalRowRadial(ws.ks, ws.dphi, ws.u, g.x.Data())
	g.chol.ForwardSolveVecInto(ws.v, ws.ks) // L⁻¹ k*
	ws.mu = mat.Dot(ws.ks, g.alpha)         // standardized mean
	variance := g.kern.Eval(ws.u, ws.u) - mat.Dot(ws.v, ws.v)
	if variance < 1e-300 {
		variance = 1e-300
	}
	ws.sdStd = math.Sqrt(variance)
}

// posteriorGrad is the gradient half of PredictWithGrad on the value half
// ws holds: it back-solves w = K⁻¹k★, sums the ∂k(u, x_i)/∂u rows rebuilt
// from the kept radial derivatives against α and −2w (kernel.GradXSum;
// ∂(k**−k★ᵀK⁻¹k★)/∂u, k** constant for a stationary kernel) and writes
// the raw-space gradients of the posterior mean and sd into dMean and
// dSD.
func (g *GP) posteriorGrad(ws *predictWorkspace, dMean, dSD []float64) {
	g.chol.BackSolveVecInto(ws.w, ws.v) // K⁻¹ k*
	dMeanU, dVarU := ws.dMeanU, ws.dVarU
	g.kern.GradXSum(dMeanU, dVarU, ws.kg, ws.u, g.x.Data(), ws.dphi, g.alpha, ws.w)
	for j := 0; j < g.d; j++ {
		du := 1 / (g.cfg.Hi[j] - g.cfg.Lo[j]) // chain rule u→x
		dMean[j] = g.ystd * dMeanU[j] * du
		dSD[j] = g.ystd * dVarU[j] / (2 * ws.sdStd) * du
	}
}

// JointPrediction is the posterior over a batch of q points: mean vector
// and the lower Cholesky factor of the covariance, both in raw output
// units. Monte-Carlo q-EI samples y = Mean + CovChol·z with z ~ N(0, I).
type JointPrediction = surrogate.JointPrediction

// PredictJoint returns the joint posterior of the latent function at the
// given raw-space points. An empty batch is an error wrapping
// surrogate.ErrEmptyBatch.
func (g *GP) PredictJoint(xs [][]float64) (*JointPrediction, error) {
	q := len(xs)
	if q == 0 {
		return nil, fmt.Errorf("gp: PredictJoint: %w", surrogate.ErrEmptyBatch)
	}
	n := g.N()
	ustore := mat.NewDense(q, g.d, nil) // row i holds the normalized x_i
	for i, x := range xs {
		g.normalizeInto(ustore.Row(i), x)
	}
	mean := make([]float64, q)
	vstore := mat.NewDense(q, n, nil) // row i holds L⁻¹ k*(x_i)
	ws := g.ws.Get().(*predictWorkspace)
	ws.valueOK = false
	ks := ws.ks
	for i := 0; i < q; i++ {
		g.kern.EvalRow(ks, ustore.Row(i), g.x.Data())
		mean[i] = g.ymean + g.ystd*mat.Dot(ks, g.alpha)
		g.chol.ForwardSolveVecInto(vstore.Row(i), ks)
	}
	g.ws.Put(ws)
	cov := mat.NewDense(q, q, nil)
	for i := 0; i < q; i++ {
		for j := 0; j <= i; j++ {
			c := g.kern.Eval(ustore.Row(i), ustore.Row(j)) - mat.Dot(vstore.Row(i), vstore.Row(j))
			c *= g.ystd * g.ystd
			cov.Set(i, j, c)
			cov.Set(j, i, c)
		}
	}
	ch, err := mat.NewCholesky(cov, 1e-10, 1e-2)
	if err != nil {
		return nil, fmt.Errorf("gp: joint covariance not PD: %w", err)
	}
	// L materializes a fresh matrix on the packed factor — no Clone needed.
	return &JointPrediction{Mean: mean, CovChol: ch.L()}, nil
}

// Fantasize returns a new GP that additionally conditions on the
// observation (x, y) in raw space without re-estimating hyperparameters —
// the Kriging-Believer partial update. Cost is O(n²) via incremental
// Cholesky extension. The result is returned as a surrogate.Surrogate
// (always a *GP underneath) so GP satisfies the surrogate interface.
func (g *GP) Fantasize(x []float64, y float64) (surrogate.Surrogate, error) {
	n := g.N()
	ws := g.ws.Get().(*predictWorkspace)
	ws.valueOK = false
	u := ws.u
	g.normalizeInto(u, x)
	// An n×1 cross block in column-major order is just the column itself,
	// so the batched kernel row fills it directly (k is symmetric, bitwise)
	// and ExtendCols consumes it without any transpose pass.
	bcol := make([]float64, n)
	g.kern.EvalRow(bcol, u, g.x.Data())
	cc := mat.NewDense(1, 1, nil)
	cc.Set(0, 0, g.kern.Eval(u, u)+g.noise)
	ext, err := g.chol.ExtendCols(bcol, cc)
	if err != nil {
		g.ws.Put(ws)
		return nil, fmt.Errorf("gp: fantasy extension failed: %w", err)
	}
	ng := &GP{
		cfg: g.cfg, kern: g.kern, d: g.d,
		ymean: g.ymean, ystd: g.ystd,
		noise: g.noise, chol: ext,
		warmParams: g.warmParams, fitLML: g.fitLML,
	}
	ng.x = mat.NewDense(n+1, g.d, nil)
	copy(ng.x.Data(), g.x.Data())
	copy(ng.x.Row(n), u)
	g.ws.Put(ws)
	ng.ys = append(mat.CloneVec(g.ys), (y-g.ymean)/g.ystd)
	ng.alpha = ext.SolveVec(ng.ys)
	ng.initWorkspacePool()
	return ng, nil
}
