package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// ConstrainedFactory is a core.ModelFactory that fits two GPs per cycle:
// the objective GP on the told profits (the default factory's exact
// Fit/Refit/WithData schedule) and a violation GP on the deterministic
// constraint-excess labels of the same points. The returned surrogate
// wraps the objective model and exposes the violation model through
// acq.FeasibilityProvider, which is how every acquisition strategy
// becomes constraint-aware without code changes (aphBO-2GP-3B's
// probability-of-feasibility multiplier; see acq.Weighted).
type ConstrainedFactory struct {
	// Cons supplies the violation labels; its cache makes the per-cycle
	// relabeling a map lookup for every point the pool evaluated.
	Cons *Constrained
	// ObjCfg and VioCfg configure the two GPs.
	ObjCfg, VioCfg gp.Config
	// RefitEvery re-optimizes hyperparameters every k-th cycle (default
	// 3, matching core's default model schedule).
	RefitEvery int

	obj *gp.GP
	vio *gp.GP
}

// NewConstrainedFactory builds the factory for a horizon problem. The
// violation GP reuses the objective configuration except for its own
// derived seed, so the two fits draw independent streams.
func NewConstrainedFactory(cons *Constrained, cfg gp.Config, refitEvery int) *ConstrainedFactory {
	vio := cfg
	vio.Seed = cfg.Seed ^ 0x9e3779b97f4a7c15
	if refitEvery <= 0 {
		refitEvery = 3
	}
	return &ConstrainedFactory{Cons: cons, ObjCfg: cfg, VioCfg: vio, RefitEvery: refitEvery}
}

// fitOne runs the default factory's schedule on one (model, labels)
// pair.
func fitOne(prev *gp.GP, cfg gp.Config, refitEvery, cycle int, xs [][]float64, ys []float64) (*gp.GP, error) {
	switch {
	case prev == nil:
		return gp.Fit(xs, ys, cfg)
	case (cycle-1)%refitEvery == 0:
		return gp.Refit(prev, xs, ys)
	default:
		return gp.WithData(prev, xs, ys)
	}
}

// Fit implements core.ModelFactory. The violation labels are computed
// first, on the caller — each is a cache lookup, since the pool simulated
// every point when it evaluated it — then the objective GP and the
// violation GP fit at once through parallel.Compute. The two fits share
// nothing — each draws its own streams from its own seed and its own
// pooled workspaces — so the pair is bit-identical to fitting them one
// after the other, and with no helper free (a busy fleet member) they do
// just that. A GP fit cannot be interrupted, so ctx does not stop it:
// cancellation is seen by the engine's next phase, as with a single fit.
func (f *ConstrainedFactory) Fit(_ context.Context, st *core.State, cycle int) (surrogate.Surrogate, error) {
	vys := make([]float64, len(st.X))
	for i, x := range st.X {
		vys[i] = f.Cons.Violation(x)
	}
	var obj, vio *gp.GP
	var objErr, vioErr error
	if err := parallel.Compute(context.Background(), 2, 2, func(i int) {
		if i == 0 {
			obj, objErr = fitOne(f.obj, f.ObjCfg, f.RefitEvery, cycle, st.X, st.Y)
		} else {
			vio, vioErr = fitOne(f.vio, f.VioCfg, f.RefitEvery, cycle, st.X, vys)
		}
	}); err != nil {
		panic(err) // unreachable: the background context is never cancelled
	}
	if objErr != nil {
		return nil, fmt.Errorf("scenario: objective fit: %w", objErr)
	}
	if vioErr != nil {
		return nil, fmt.Errorf("scenario: violation fit: %w", vioErr)
	}
	f.obj, f.vio = obj, vio
	return &constrainedSurrogate{Surrogate: obj, pof: &pofModel{g: vio}}, nil
}

// constrainedFactoryState is the serialized warm-start state of both
// GPs, mirroring the default factory's checkpoint contract.
type constrainedFactoryState struct {
	Obj *gp.HyperState `json:"obj,omitempty"`
	Vio *gp.HyperState `json:"vio,omitempty"`
}

// FactoryState implements core.FactoryCheckpointer.
func (f *ConstrainedFactory) FactoryState() ([]byte, error) {
	var s constrainedFactoryState
	if f.obj != nil {
		s.Obj = f.obj.HyperState()
	}
	if f.vio != nil {
		s.Vio = f.vio.HyperState()
	}
	return json.Marshal(&s)
}

// RestoreFactoryState implements core.FactoryCheckpointer: the restored
// models are hyperparameter donors for the next Refit/WithData, which is
// the factory's only use of them.
func (f *ConstrainedFactory) RestoreFactoryState(data []byte) error {
	var s constrainedFactoryState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("scenario factory state: %w", err)
	}
	f.obj, f.vio = nil, nil
	if s.Obj != nil {
		m, err := gp.RestoreHyperDonor(s.Obj)
		if err != nil {
			return fmt.Errorf("scenario factory state: %w", err)
		}
		f.obj = m
	}
	if s.Vio != nil {
		m, err := gp.RestoreHyperDonor(s.Vio)
		if err != nil {
			return fmt.Errorf("scenario factory state: %w", err)
		}
		f.vio = m
	}
	return nil
}

// constrainedSurrogate is the composite the factory hands the engine:
// all posterior queries and the lengthscales delegate to the objective
// GP, and the violation model rides along as the acq.FeasibilityProvider
// capability. Fantasize rewraps, so Kriging-Believer fantasy chains and
// the asynchronous busy-point conditioning keep the feasibility
// weighting all the way down.
type constrainedSurrogate struct {
	surrogate.Surrogate
	pof *pofModel
}

// Fantasize implements surrogate.Surrogate, preserving the constraint
// capability on the conditioned model.
func (c *constrainedSurrogate) Fantasize(x []float64, y float64) (surrogate.Surrogate, error) {
	base, err := c.Surrogate.Fantasize(x, y)
	if err != nil {
		return nil, err
	}
	return &constrainedSurrogate{Surrogate: base, pof: c.pof}, nil
}

// Feasibility implements acq.FeasibilityProvider.
func (c *constrainedSurrogate) Feasibility() acq.FeasibilityModel { return c.pof }

// pofSDFloor keeps the feasibility probability finite where the
// violation GP is certain: without it, PoF collapses to a hard 0/1 step
// and its gradient to spikes, which starves the inner optimizer.
const pofSDFloor = 1e-9

// pofModel turns the violation GP's posterior into a probability of
// feasibility: PoF(x) = Φ((0 − μ(x)) / σ(x)), the probability that the
// latent violation is non-positive. Safe for concurrent readers.
type pofModel struct {
	g *gp.GP
}

// pofGradPool recycles PoFWithGrad's 2·d posterior-gradient scratch: the
// model sits in the inner loop of every constrained acquisition, shared by
// its restarts.
var pofGradPool = sync.Pool{New: func() any { return new([]float64) }}

// PoFWithGrad implements acq.FeasibilityModel:
// ∇Φ(z) = φ(z)·∇z with z = −μ/σ and ∇z = (−∇μ·σ + μ·∇σ)/σ².
// A value-only call (nil grad) asks the violation GP for its value only
// too, so the bits are the full call's.
func (p *pofModel) PoFWithGrad(x, grad []float64) float64 {
	if grad == nil {
		mu, sd := p.g.PredictWithGrad(x, nil, nil)
		if sd < pofSDFloor {
			sd = pofSDFloor
		}
		return rng.NormCDF(-mu / sd)
	}
	d := len(x)
	buf := pofGradPool.Get().(*[]float64)
	if cap(*buf) < 2*d {
		*buf = make([]float64, 2*d)
	}
	dMu, dSD := (*buf)[:d], (*buf)[d:2*d]
	mu, sd := p.g.PredictWithGrad(x, dMu, dSD)
	if sd < pofSDFloor {
		sd = pofSDFloor
	}
	z := -mu / sd
	pdf := rng.NormPDF(z)
	inv2 := 1 / (sd * sd)
	for j := 0; j < d; j++ {
		grad[j] = pdf * (-dMu[j]*sd + mu*dSD[j]) * inv2
	}
	pofGradPool.Put(buf)
	return rng.NormCDF(z)
}

// horizonBudget is the virtual budget of one rolling-horizon day run:
// effectively unbounded, so MaxCycles (not elapsed time) terminates the
// run and measured fit/acquisition times can never change how many
// cycles a day gets — the property that makes year schedules replay
// bit-identically across machines.
const horizonBudget = math.MaxInt64 / 4
