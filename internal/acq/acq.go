// Package acq implements the acquisition functions (infill criteria) used
// by the paper's five batch acquisition processes: analytic Expected
// Improvement and Upper Confidence Bound with gradients for L-BFGS
// optimization, and Monte-Carlo multi-point q-EI via
// the reparameterization trick with fixed quasi-MC base samples (the
// BoTorch construction used by MC-based q-EGO and TuRBO).
//
// All acquisition values are utilities to be maximized, regardless of
// whether the underlying objective is minimized or maximized.
package acq

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/surrogate"
)

// Acquisition scores a single candidate point under a surrogate posterior
// (the paper's GP, or any other surrogate.Surrogate).
type Acquisition interface {
	// EvalWithGrad returns the utility of x and writes its gradient
	// w.r.t. x into grad (length = dim). A nil grad asks for the value
	// only, with the bits of a full call at x: the posterior comes from
	// PredictWithGrad with nil gradient buffers (DESIGN.md §9.4).
	EvalWithGrad(g surrogate.Surrogate, x, grad []float64) float64
}

// EI is the Expected Improvement criterion of Jones et al. (EGO).
type EI struct {
	// Best is the incumbent objective value.
	Best float64
	// Minimize selects the improvement direction.
	Minimize bool
	// Xi is an optional exploration offset added to the improvement
	// threshold (0 is the classical criterion).
	Xi float64
}

// EvalWithGrad implements Acquisition.
func (e *EI) EvalWithGrad(g surrogate.Surrogate, x, grad []float64) float64 {
	if grad == nil {
		mu, sd := g.PredictWithGrad(x, nil, nil)
		v, _ := eiValue(mu, sd, e.Best, e.Minimize, e.Xi)
		return v
	}
	s := grabGradScratch(len(x))
	mu, sd := g.PredictWithGrad(x, s.dMu, s.dSD)
	v, partial := eiValue(mu, sd, e.Best, e.Minimize, e.Xi)
	// partial = (∂EI/∂μ', ∂EI/∂σ) where μ' is the signed improvement mean.
	sign := 1.0
	if e.Minimize {
		sign = -1
	}
	for j := range grad {
		grad[j] = sign*partial[0]*s.dMu[j] + partial[1]*s.dSD[j]
	}
	gradScratchPool.Put(s)
	return v
}

// eiValue computes EI and its partials w.r.t. (signed mean, sd). The signed
// improvement mean is m = μ−best (maximize) or best−μ (minimize), shifted
// by −ξ.
func eiValue(mu, sd, best float64, minimize bool, xi float64) (float64, [2]float64) {
	var m float64
	if minimize {
		m = best - mu - xi
	} else {
		m = mu - best - xi
	}
	if sd < 1e-12 {
		if m > 0 {
			return m, [2]float64{1, 0}
		}
		return 0, [2]float64{0, 0}
	}
	z := m / sd
	cdf := rng.NormCDF(z)
	pdf := rng.NormPDF(z)
	ei := m*cdf + sd*pdf
	// ∂EI/∂m = Φ(z); ∂EI/∂σ = φ(z).
	return ei, [2]float64{cdf, pdf}
}

// UCB is the (GP-)Upper Confidence Bound criterion: μ + β·σ for
// maximization, −μ + β·σ for minimization (i.e. the negated lower
// confidence bound), so that larger is always better.
type UCB struct {
	// Beta is the exploration weight (default 2 when zero).
	Beta float64
	// Minimize selects the bound direction.
	Minimize bool
}

func (u *UCB) beta() float64 {
	if u.Beta <= 0 {
		return 2
	}
	return u.Beta
}

// EvalWithGrad implements Acquisition.
func (u *UCB) EvalWithGrad(g surrogate.Surrogate, x, grad []float64) float64 {
	var mu, sd float64
	b := u.beta()
	if grad == nil {
		mu, sd = g.PredictWithGrad(x, nil, nil)
	} else {
		s := grabGradScratch(len(x))
		mu, sd = g.PredictWithGrad(x, s.dMu, s.dSD)
		sign := 1.0
		if u.Minimize {
			sign = -1
		}
		for j := range grad {
			grad[j] = sign*s.dMu[j] + b*s.dSD[j]
		}
		gradScratchPool.Put(s)
	}
	if u.Minimize {
		return -mu + b*sd
	}
	return mu + b*sd
}

// QEI is the Monte-Carlo multi-point Expected Improvement
// qEI(X) = E[ max_i (improvement of y_i)+ ] with y ~ N(μ(X), Σ(X)),
// estimated with fixed quasi-MC base samples through the
// reparameterization y = μ + L·z (Wilson et al., Balandat et al.). The base
// samples are drawn once at construction, which makes the estimator a
// deterministic, optimizable function of the batch.
type QEI struct {
	// Best is the incumbent objective value.
	Best float64
	// Minimize selects the improvement direction.
	Minimize bool

	q    int
	base [][]float64 // m×q standard normal quasi-MC samples
}

// NewQEI builds a q-point MC EI with the given number of base samples
// (default 128 when samples <= 0) drawn from the stream.
func NewQEI(q, samples int, best float64, minimize bool, stream *rng.Stream) *QEI {
	if q < 1 {
		panic(fmt.Sprintf("acq: qEI with q=%d", q))
	}
	if samples <= 0 {
		samples = 128
	}
	return &QEI{
		Best:     best,
		Minimize: minimize,
		q:        q,
		base:     rng.SobolNormal(samples, q, stream),
	}
}

// EvalBatch returns the MC estimate of qEI for the batch xs (len q). The
// batch posterior comes from a single joint GP prediction.
func (e *QEI) EvalBatch(g surrogate.Surrogate, xs [][]float64) float64 {
	if len(xs) != e.q {
		panic(fmt.Sprintf("acq: qEI batch size %d != %d", len(xs), e.q))
	}
	jp, err := g.PredictJoint(xs)
	if err != nil {
		// A degenerate joint covariance (duplicated points) still has a
		// well-defined qEI; fall back to the diagonal approximation.
		return e.diagonalFallback(g, xs)
	}
	s := grabBatchScratch(e.q, 0)
	defer batchScratchPool.Put(s)
	var acc float64
	y := s.y
	for _, z := range e.base {
		for i := 0; i < e.q; i++ {
			v := jp.Mean[i]
			row := jp.CovChol.Row(i)
			for k := 0; k <= i; k++ {
				v += row[k] * z[k]
			}
			y[i] = v
		}
		best := 0.0
		for _, yi := range y {
			var imp float64
			if e.Minimize {
				imp = e.Best - yi
			} else {
				imp = yi - e.Best
			}
			if imp > best {
				best = imp
			}
		}
		acc += best
	}
	return acc / float64(len(e.base))
}

func (e *QEI) diagonalFallback(g surrogate.Surrogate, xs [][]float64) float64 {
	var acc float64
	for _, z := range e.base {
		best := 0.0
		for i, x := range xs {
			mu, sd := g.PredictWithGrad(x, nil, nil)
			yi := mu + sd*z[i]
			var imp float64
			if e.Minimize {
				imp = e.Best - yi
			} else {
				imp = yi - e.Best
			}
			if imp > best {
				best = imp
			}
		}
		acc += best
	}
	return acc / float64(len(e.base))
}

// FlatObjective adapts the batch criterion to a flattened q·d vector for
// generic optimizers: the slice is interpreted as q concatenated points.
func (e *QEI) FlatObjective(g surrogate.Surrogate, d int) func(flat []float64) float64 {
	return func(flat []float64) float64 {
		if len(flat) != e.q*d {
			panic(fmt.Sprintf("acq: flat length %d != q·d = %d", len(flat), e.q*d))
		}
		s := grabBatchScratch(0, e.q)
		for i := range s.xs {
			s.xs[i] = flat[i*d : (i+1)*d]
		}
		v := e.EvalBatch(g, s.xs)
		batchScratchPool.Put(s)
		return v
	}
}
