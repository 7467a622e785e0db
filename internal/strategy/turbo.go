package strategy

import (
	"context"
	"math"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// TuRBO is TuRBO-1 (Eriksson et al., 2019) as configured in the paper: a
// single trust region — a hyper-rectangle centered at the incumbent whose
// per-dimension side lengths are shaped by the GP's ARD lengthscales while
// preserving total volume L^d — inside which a batch is selected with
// Monte-Carlo q-EI, exactly as MC-based q-EGO does on the full domain.
// The base length L expands after consecutive improving cycles and shrinks
// after consecutive failures; when it collapses below LMin the region is
// re-initialized ("restart").
type TuRBO struct {
	// Samples, Starts, EvalBudget configure the inner joint q-EI
	// optimization (defaults as MCQEGO).
	Samples, Starts, EvalBudget int
	// LInit, LMin, LMax control the base side length on the normalized
	// unit cube (defaults 0.8, 0.5^7, 1.6 — Eriksson et al.).
	LInit, LMin, LMax float64
	// SuccTol and FailTol are the consecutive-success/failure counts
	// triggering expansion/shrinkage (defaults 3 and max(4, d/q)).
	SuccTol, FailTol int
	// MultiInfill switches the inner AP from joint q-EI to the mic-style
	// EI+UCB sequential fill — the "multi-infill-criterion TuRBO" the
	// paper's §4 proposes as future work.
	MultiInfill bool

	length    float64
	succ      int
	fail      int
	haveState bool
}

// NewTuRBO returns the paper's single-trust-region configuration.
func NewTuRBO() *TuRBO {
	return &TuRBO{Samples: 64, Starts: 2, EvalBudget: 1500}
}

// Name implements core.Strategy.
func (s *TuRBO) Name() string { return "TuRBO" }

// Reset implements core.Strategy.
func (s *TuRBO) Reset() {
	s.length, s.succ, s.fail, s.haveState = 0, 0, 0, false
}

func (s *TuRBO) params(d, q int) (lInit, lMin, lMax float64, succTol, failTol int) {
	lInit = s.LInit
	if lInit <= 0 {
		lInit = 0.8
	}
	lMin = s.LMin
	if lMin <= 0 {
		lMin = math.Pow(0.5, 7)
	}
	lMax = s.LMax
	if lMax <= 0 {
		lMax = 1.6
	}
	succTol = s.SuccTol
	if succTol <= 0 {
		succTol = 3
	}
	failTol = s.FailTol
	if failTol <= 0 {
		failTol = d / q
		if failTol < 4 {
			failTol = 4
		}
	}
	return lInit, lMin, lMax, succTol, failTol
}

// lengthscaler is the optional surrogate capability TuRBO uses to shape
// the trust region. The GP's ARD lengthscales satisfy it; surrogates
// without per-dimension lengthscales yield an isotropic region.
type lengthscaler interface {
	Lengthscales() []float64
}

// trustRegion computes the raw-space box of the current trust region,
// centered at the incumbent and shaped by the model's ARD lengthscales
// normalized to preserve total volume length^d.
func (s *TuRBO) trustRegion(model surrogate.Surrogate, st *core.State) (lo, hi []float64) {
	p := st.Problem
	d := p.Dim()
	var ls []float64
	if lsr, ok := model.(lengthscaler); ok {
		ls = lsr.Lengthscales()
	} else {
		ls = make([]float64, d)
		for j := range ls {
			ls[j] = 1
		}
	}
	// Normalize lengthscales to geometric mean 1.
	logSum := 0.0
	for _, l := range ls {
		logSum += math.Log(l)
	}
	gm := math.Exp(logSum / float64(d))
	lo = make([]float64, d)
	hi = make([]float64, d)
	for j := 0; j < d; j++ {
		width := (p.Hi[j] - p.Lo[j]) * s.length * (ls[j] / gm)
		if maxW := p.Hi[j] - p.Lo[j]; width > maxW {
			width = maxW
		}
		c := st.BestX[j]
		lo[j] = c - width/2
		hi[j] = c + width/2
		if lo[j] < p.Lo[j] {
			lo[j] = p.Lo[j]
		}
		if hi[j] > p.Hi[j] {
			hi[j] = p.Hi[j]
		}
		if !(lo[j] < hi[j]) { // fully clipped: keep a sliver
			lo[j] = math.Max(p.Lo[j], c-1e-6*(p.Hi[j]-p.Lo[j]))
			hi[j] = math.Min(p.Hi[j], c+1e-6*(p.Hi[j]-p.Lo[j]))
		}
	}
	return lo, hi
}

// Propose implements core.Strategy.
func (s *TuRBO) Propose(ctx context.Context, model surrogate.Surrogate, st *core.State, q int, stream *rng.Stream) ([][]float64, error) {
	p := st.Problem
	lInit, _, _, _, _ := s.params(p.Dim(), q)
	if !s.haveState {
		s.length = lInit
		s.haveState = true
	}
	lo, hi := s.trustRegion(model, st)
	if s.MultiInfill {
		return s.proposeMultiInfill(ctx, model, st, q, lo, hi, stream)
	}
	return proposeJointQEI(ctx, model, st, q, lo, hi, s.Samples, s.Starts, s.EvalBudget, stream)
}

// proposeMultiInfill runs the EI+UCB sequential fill restricted to the
// trust region (extension experiment).
func (s *TuRBO) proposeMultiInfill(ctx context.Context, model surrogate.Surrogate, st *core.State, q int, lo, hi []float64, stream *rng.Stream) ([][]float64, error) {
	p := st.Problem
	opt := DefaultAFOpt()
	batch := make([][]float64, 0, q)
	cur := model
	best := st.BestY
	for i := 0; i < q; i++ {
		var af acq.Acquisition
		if i%2 == 0 {
			af = &acq.EI{Best: best, Minimize: p.Minimize}
		} else {
			af = &acq.UCB{Beta: 2, Minimize: p.Minimize}
		}
		x, _ := opt.Maximize(ctx, cur, af, lo, hi, incumbent(st), stream.Split(uint64(i)))
		batch = append(batch, x)
		if i == q-1 {
			break
		}
		// Believer chain: each extension is one O(n²) factor extension
		// (mat.Cholesky.ExtendCols, DESIGN.md §9.1).
		mu, _ := cur.Predict(x)
		if fg, err := cur.Fantasize(x, mu); err == nil {
			cur = fg
			if p.Better(mu, best) {
				best = mu
			}
		}
	}
	return batch, nil
}

// Observe implements core.Strategy: success/failure counting and trust
// region resizing. st.Observe has already run, so st.BestY reflects the
// batch; a cycle is a success when the batch contained the new incumbent.
func (s *TuRBO) Observe(st *core.State, xs [][]float64, ys []float64) {
	if !s.haveState {
		return
	}
	p := st.Problem
	d := p.Dim()
	q := len(xs)
	lInit, lMin, lMax, succTol, failTol := s.params(d, max(q, 1))

	improved := false
	for _, y := range ys {
		if fp.Exact(y, st.BestY) {
			improved = true
			break
		}
	}
	if improved {
		s.succ++
		s.fail = 0
		if s.succ >= succTol {
			s.length = math.Min(2*s.length, lMax)
			s.succ = 0
		}
	} else {
		s.fail++
		s.succ = 0
		if s.fail >= failTol {
			s.length /= 2
			s.fail = 0
		}
	}
	if s.length < lMin {
		// Restart: re-inflate the region around the incumbent. (The full
		// TuRBO restart also discards data; with the paper's single
		// region and tight time budget we keep the data set — see
		// DESIGN.md.)
		s.length = lInit
		s.succ, s.fail = 0, 0
	}
}

// APParallelism implements core.Strategy: like MC-based q-EGO, the inner
// optimization is sequential.
func (s *TuRBO) APParallelism(int) int { return 1 }
