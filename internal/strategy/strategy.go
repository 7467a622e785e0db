// Package strategy implements the five batch acquisition processes the
// paper compares: KB-q-EGO (Kriging Believer), mic-q-EGO (multi-infill
// criteria), MC-based q-EGO (Monte-Carlo joint q-EI), BSP-EGO (binary
// space partitioning with parallel per-leaf acquisition) and TuRBO-1
// (trust region BO). Each satisfies core.Strategy and is purely a
// candidate-selection policy: model fitting, evaluation and time
// accounting live in the engine.
package strategy

import (
	"context"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/optim"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// AFOpt bundles the shared knobs of single-point acquisition optimization
// ("inner optimization"): multi-start bounded L-BFGS, as BoTorch's
// optimize_acqf does with L-BFGS-B.
type AFOpt struct {
	// Starts is the number of Sobol restarts (4 in DefaultAFOpt, 2 in
	// BSP-EGO's per-leaf searches).
	Starts int
	// MaxIter bounds L-BFGS iterations per start (40 in DefaultAFOpt, 30
	// in BSP-EGO's).
	MaxIter int
}

// DefaultAFOpt returns the standard inner-optimization configuration.
func DefaultAFOpt() AFOpt { return AFOpt{Starts: 4, MaxIter: 40} }

// Maximize finds argmax of the acquisition function over [lo, hi] using
// multi-start L-BFGS with the model's gradient information. Anchors (e.g.
// the incumbent) seed additional perturbed starts. The restarts share one
// objective (posterior queries are safe for concurrent readers) and run
// through optim.MultiStart on whatever helpers the process-wide budget
// lends. Cancelling ctx skips pending restarts; the best completed
// restart is still returned.
//
// When the surrogate carries a constraint model (acq.FeasibilityProvider,
// fitted by the scenario engine's constrained factory), the criterion is
// transparently weighted by the probability of feasibility — this one
// seam makes every strategy that optimizes a single-point criterion
// constraint-aware. Plain surrogates pass through unweighted, so
// unconstrained runs (and their golden traces) are untouched.
func (o AFOpt) Maximize(ctx context.Context, m surrogate.Surrogate, af acq.Acquisition, lo, hi []float64, anchors [][]float64, stream *rng.Stream) ([]float64, float64) {
	af = acq.Weighted(af, m)
	// A line-search trial's nil grad passes through: the criterion then
	// returns its value only, and the negation loop has nothing to do.
	obj := func(x, grad []float64) float64 {
		v := af.EvalWithGrad(m, x, grad)
		for i := range grad {
			grad[i] = -grad[i]
		}
		return -v
	}
	starts := optim.DefaultStarts(o.Starts, anchors, lo, hi, stream)
	ms := &optim.MultiStart{Local: &optim.LBFGSB{MaxIter: o.MaxIter, GTol: 1e-7}}
	res := ms.Run(ctx, optim.Shared(obj), starts, lo, hi)
	return res.X, -res.F
}

// incumbent returns the anchor list used to seed acquisition starts: the
// best observed point of the run.
func incumbent(st *core.State) [][]float64 {
	if st.BestX == nil {
		return nil
	}
	return [][]float64{mat.CloneVec(st.BestX)}
}
