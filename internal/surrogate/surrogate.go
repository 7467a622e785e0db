// Package surrogate defines the model abstraction of the BO stack: the
// posterior queries batch acquisition needs (the marginal posterior with
// its gradient, the joint posterior, fantasy conditioning) and the ARD
// lengthscales, decoupled from the concrete model. The engine fits it
// every cycle through core.ModelFactory; strategies and acquisition
// functions see only this interface, so the scenario engine's
// feasibility-carrying model and test fakes slot in without touching
// them.
//
// One model family implements it: gp.GP, the paper's exact GP. The
// package is a leaf: it imports only internal/mat, and the model packages
// import it.
package surrogate

import (
	"errors"

	"repro/internal/mat"
)

// Surrogate is a fitted probabilistic regression model over a box-bounded
// design space, queried in raw (unnormalized) coordinates. Implementations
// are immutable after fitting: Fantasize returns a derived model and all
// methods are safe for concurrent readers.
type Surrogate interface {
	// PredictWithGrad returns the posterior mean and standard deviation
	// of the latent function at x and writes their gradients with respect
	// to x into the caller-provided dMean and dSD (both of length Dim),
	// for gradient-based acquisition optimization. The
	// destination-passing signature keeps the acquisition inner loop
	// allocation-free: callers own and recycle the gradient buffers (see
	// DESIGN.md §9). With dMean and dSD both nil it returns the value
	// only, with the bits of a full call at x and none of the gradient
	// work: this is the one value path.
	PredictWithGrad(x []float64, dMean, dSD []float64) (mean, sd float64)
	// PredictJoint returns the joint posterior over a batch of points,
	// as needed by the Monte-Carlo multi-point criterion (q-EI). An empty
	// batch returns an error wrapping ErrEmptyBatch.
	PredictJoint(xs [][]float64) (*JointPrediction, error)
	// Fantasize conditions on a hypothetical observation (x, y) without
	// re-estimating hyperparameters — the Kriging-Believer partial update.
	// An error (a degenerate conditioning update) leaves the caller on the
	// current model.
	Fantasize(x []float64, y float64) (Surrogate, error)
	// Lengthscales returns the fitted ARD lengthscales on the normalized
	// unit cube, one per input dimension; TuRBO shapes its trust region
	// with them.
	Lengthscales() []float64
}

// JointPrediction is the posterior over a batch of q points: the mean
// vector and the lower Cholesky factor of the covariance, both in raw
// output units. Monte-Carlo criteria sample y = Mean + CovChol·z with
// z ~ N(0, I).
type JointPrediction struct {
	Mean    []float64
	CovChol *mat.Dense
}

// ErrEmptyBatch reports a joint prediction requested over zero points.
// Implementations wrap it from PredictJoint rather than panicking, so
// batch-construction bugs surface as ordinary errors. Test with errors.Is.
var ErrEmptyBatch = errors.New("surrogate: empty prediction batch")
