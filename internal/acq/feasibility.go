package acq

import "repro/internal/surrogate"

// FeasibilityModel predicts the probability that a candidate satisfies
// the problem's operational constraints — P(violation ≤ 0) under a
// surrogate of the violation magnitude. Implementations must be safe for
// concurrent readers, like surrogate.Surrogate.
type FeasibilityModel interface {
	// PoFWithGrad returns the probability of feasibility at x, in
	// [0, 1], and writes ∂PoF/∂x into grad (length = dim). A nil grad
	// asks for the value only, with the bits of a full call.
	PoFWithGrad(x, grad []float64) float64
}

// FeasibilityProvider is an optional surrogate capability: a composite
// surrogate that carries a constraint model alongside the objective model
// implements it, and the acquisition layer picks the constraint model up
// without the strategies knowing (see Weighted).
type FeasibilityProvider interface {
	// Feasibility returns the constraint model; it is never nil.
	Feasibility() FeasibilityModel
}

// FeasibilityWeighted decorates any single-point acquisition with a
// probability-of-feasibility multiplier, the aphBO-2GP-3B constrained
// acquisition: utility(x) = base(x) · PoF(x). Because every base criterion
// in this package is non-negative-utility-to-maximize, the product steers
// the inner optimizer toward candidates that are both promising and
// likely feasible without hard-penalizing the simulator.
type FeasibilityWeighted struct {
	Base  Acquisition
	Model FeasibilityModel
}

// EvalWithGrad implements Acquisition via the product rule:
// ∇(base·p) = p·∇base + base·∇p.
func (w *FeasibilityWeighted) EvalWithGrad(g surrogate.Surrogate, x, grad []float64) float64 {
	v := w.Base.EvalWithGrad(g, x, grad)
	if grad == nil {
		return v * w.Model.PoFWithGrad(x, nil)
	}
	s := grabGradScratch(len(x))
	p := w.Model.PoFWithGrad(x, s.dMu)
	for j := range grad {
		grad[j] = grad[j]*p + v*s.dMu[j]
	}
	gradScratchPool.Put(s)
	return v * p
}

// Weighted wraps base with a feasibility multiplier when the surrogate
// carries a constraint model, and returns base unchanged otherwise. This
// is the single seam through which every strategy becomes
// constraint-aware: strategies keep constructing their criteria as
// always, the inner optimizer calls Weighted with the cycle's surrogate,
// and only runs whose model factory fitted a constraint surrogate (the
// scenario engine's) see any behavioral change — plain GP surrogates pass
// through bit-identically.
func Weighted(base Acquisition, g surrogate.Surrogate) Acquisition {
	fp, ok := g.(FeasibilityProvider)
	if !ok {
		return base
	}
	return &FeasibilityWeighted{Base: base, Model: fp.Feasibility()}
}

// PoFProduct returns the joint feasibility weight of a flattened batch of
// q points of dimension d — the product of per-point PoF values, the
// independence approximation batch criteria (MC q-EI) use. Surrogates
// without a constraint model weigh 1 (no-op).
func PoFProduct(g surrogate.Surrogate, flat []float64, q, d int) float64 {
	fp, ok := g.(FeasibilityProvider)
	if !ok {
		return 1
	}
	m := fp.Feasibility()
	p := 1.0
	for i := 0; i < q; i++ {
		p *= m.PoFWithGrad(flat[i*d:(i+1)*d], nil)
	}
	return p
}
