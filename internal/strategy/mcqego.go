package strategy

import (
	"context"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/optim"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// MCQEGO is MC-based q-EGO (Balandat et al., BoTorch): the joint
// multi-point q-EI over the whole batch is estimated with fixed quasi-MC
// base samples through the reparameterization trick and optimized jointly
// as a q·d-dimensional problem with multi-start bounded L-BFGS (finite
// difference gradients — the MC estimator has no cheap analytic gradient
// in this stack). As the paper notes, the q·d inner problem is what makes
// this AP expensive for large batches.
type MCQEGO struct{}

// NewMCQEGO returns the strategy.
func NewMCQEGO() *MCQEGO { return &MCQEGO{} }

// Name implements core.Strategy.
func (s *MCQEGO) Name() string { return "MC-based q-EGO" }

// Reset implements core.Strategy (stateless).
func (s *MCQEGO) Reset() {}

// Observe implements core.Strategy (stateless).
func (s *MCQEGO) Observe(*core.State, [][]float64, []float64) {}

// Propose implements core.Strategy.
func (s *MCQEGO) Propose(ctx context.Context, model surrogate.Surrogate, st *core.State, q int, stream *rng.Stream) ([][]float64, error) {
	return proposeJointQEI(ctx, model, st, q, st.Problem.Lo, st.Problem.Hi, stream)
}

// The joint q-EI optimization's settings, shared by MC-based q-EGO and
// TuRBO: jointSamples MC base samples, jointStarts Sobol restarts (plus
// one anchored at the incumbent), and a cap of jointEvalBudget q-EI
// evaluations per proposal. Because a finite-difference gradient costs
// 2·q·d evaluations, the number of L-BFGS iterations the cap allows
// shrinks as the batch grows — the joint inner problem genuinely gets
// harder with q, which is the paper's central scalability observation.
const (
	jointSamples    = 64
	jointStarts     = 2
	jointEvalBudget = 1500
)

// proposeJointQEI optimizes MC q-EI jointly over a (possibly restricted)
// box — shared by MC-based q-EGO (full domain) and TuRBO (trust region).
func proposeJointQEI(ctx context.Context, model surrogate.Surrogate, st *core.State, q int, lo, hi []float64, stream *rng.Stream) ([][]float64, error) {
	p := st.Problem
	d := p.Dim()
	// One finite-difference gradient costs 2·q·d evaluations plus a few
	// line-search probes; divide the budget into iterations accordingly.
	maxIter := jointEvalBudget / ((jointStarts + 1) * (2*q*d + 8))
	if maxIter < 3 {
		maxIter = 3
	}
	qei := acq.NewQEI(q, jointSamples, st.BestY, p.Minimize, stream.Split(0))
	flat := qei.FlatObjective(model, d)
	// Constraint-aware runs weight the joint criterion by the product of
	// per-point feasibility probabilities (the independence approximation
	// of aphBO's PoF multiplier); plain surrogates weigh 1 and the
	// objective — and the golden traces — are untouched.
	neg := func(x []float64) float64 { return -flat(x) * acq.PoFProduct(model, x, q, d) }

	// Flattened bounds.
	flo := make([]float64, q*d)
	fhi := make([]float64, q*d)
	for i := 0; i < q; i++ {
		copy(flo[i*d:(i+1)*d], lo)
		copy(fhi[i*d:(i+1)*d], hi)
	}

	// Starts: Sobol batches plus one batch anchored at the incumbent with
	// Sobol fill — mirroring BoTorch's batch_initial_conditions heuristic.
	startStream := stream.Split(1)
	flatStarts := make([][]float64, 0, jointStarts+1)
	for k := 0; k < jointStarts; k++ {
		pts := rng.SobolDesign(q, lo, hi, startStream.Split(uint64(k)))
		flatStarts = append(flatStarts, flatten(pts, d))
	}
	if st.BestX != nil {
		pts := rng.SobolDesign(q, lo, hi, startStream.Split(uint64(jointStarts)))
		copy(pts[0], clampVec(st.BestX, lo, hi))
		flatStarts = append(flatStarts, flatten(pts, d))
	}

	// Finite-difference step scaled to the box so that q·d flattening of
	// heterogeneous bounds stays well conditioned.
	minWidth := hi[0] - lo[0]
	for j := 1; j < d; j++ {
		if w := hi[j] - lo[j]; w < minWidth {
			minWidth = w
		}
	}
	grad := optim.NumGrad(neg, 1e-6*minWidth)
	ms := &optim.MultiStart{Local: &optim.LBFGSB{MaxIter: maxIter, GTol: 1e-9}}
	res := ms.Run(ctx, optim.Shared(grad), flatStarts, flo, fhi)
	return unflatten(res.X, q, d), nil
}

func flatten(pts [][]float64, d int) []float64 {
	out := make([]float64, 0, len(pts)*d)
	for _, p := range pts {
		out = append(out, p...)
	}
	return out
}

func unflatten(flat []float64, q, d int) [][]float64 {
	out := make([][]float64, q)
	for i := range out {
		out[i] = append([]float64(nil), flat[i*d:(i+1)*d]...)
	}
	return out
}

func clampVec(x, lo, hi []float64) []float64 {
	out := append([]float64(nil), x...)
	for j := range out {
		if out[j] < lo[j] {
			out[j] = lo[j]
		} else if out[j] > hi[j] {
			out[j] = hi[j]
		}
	}
	return out
}

// APParallelism implements core.Strategy: the joint q·d optimization is a
// single sequential inner problem.
func (s *MCQEGO) APParallelism(int) int { return 1 }
