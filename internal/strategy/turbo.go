package strategy

import (
	"context"
	"math"

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
// The base length L starts at turboLInit and doubles (up to turboLMax)
// after turboSuccTol consecutive improving cycles, halves after
// max(4, d/q) consecutive failures, and re-initializes ("restart") when
// it collapses below turboLMin.
type TuRBO struct {
	length    float64
	succ      int
	fail      int
	haveState bool
}

// Trust-region constants of Eriksson et al. on the normalized unit cube:
// the initial, minimum and maximum base side lengths, and the
// consecutive-success count that triggers expansion.
const (
	turboLInit   = 0.8
	turboLMin    = 0.0078125 // 0.5⁷
	turboLMax    = 1.6
	turboSuccTol = 3
)

// NewTuRBO returns the paper's single-trust-region configuration.
func NewTuRBO() *TuRBO { return &TuRBO{} }

// Name implements core.Strategy.
func (s *TuRBO) Name() string { return "TuRBO" }

// Reset implements core.Strategy.
func (s *TuRBO) Reset() {
	s.length, s.succ, s.fail, s.haveState = 0, 0, 0, false
}

// trustRegion computes the raw-space box of the current trust region,
// centered at the incumbent and shaped by the model's ARD lengthscales
// normalized to preserve total volume length^d.
func (s *TuRBO) trustRegion(model surrogate.Surrogate, st *core.State) (lo, hi []float64) {
	p := st.Problem
	d := p.Dim()
	ls := model.Lengthscales()
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
	if !s.haveState {
		s.length = turboLInit
		s.haveState = true
	}
	lo, hi := s.trustRegion(model, st)
	return proposeJointQEI(ctx, model, st, q, lo, hi, stream)
}

// Observe implements core.Strategy: success/failure counting and trust
// region resizing. st.Observe has already run, so st.BestY reflects the
// batch; a cycle is a success when the batch contained the new incumbent.
func (s *TuRBO) Observe(st *core.State, xs [][]float64, ys []float64) {
	if !s.haveState {
		return
	}
	failTol := max(4, st.Problem.Dim()/max(len(xs), 1))

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
		if s.succ >= turboSuccTol {
			s.length = math.Min(2*s.length, turboLMax)
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
	if s.length < turboLMin {
		// Restart: re-inflate the region around the incumbent. (The full
		// TuRBO restart also discards data; with the paper's single
		// region and tight time budget we keep the data set — see
		// DESIGN.md.)
		s.length = turboLInit
		s.succ, s.fail = 0, 0
	}
}

// APParallelism implements core.Strategy: like MC-based q-EGO, the inner
// optimization is sequential.
func (s *TuRBO) APParallelism(int) int { return 1 }
