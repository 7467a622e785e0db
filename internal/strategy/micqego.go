package strategy

import (
	"context"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// MICQEGO is the paper's proposed multi-infill-criteria q-EGO (Algorithm
// 2): within one cycle, several complementary acquisition functions are
// maximized on the *same* model state, yielding multiple distinct
// candidates per partial model update. Only after a full round of criteria
// is the model conditioned on the predicted values (Kriging Believer
// style), halving (for two criteria) the number of partial fits compared
// to KB-q-EGO. The paper pairs EI (explorative) with UCB (exploitative),
// split 50/50 (Table 3).
type MICQEGO struct {
	// Opt configures the inner optimizations.
	Opt AFOpt
}

// NewMICQEGO returns the paper's EI+UCB configuration.
func NewMICQEGO() *MICQEGO { return &MICQEGO{Opt: DefaultAFOpt()} }

// Name implements core.Strategy.
func (s *MICQEGO) Name() string { return "mic-q-EGO" }

// Reset implements core.Strategy (stateless).
func (s *MICQEGO) Reset() {}

// Observe implements core.Strategy (stateless).
func (s *MICQEGO) Observe(*core.State, [][]float64, []float64) {}

// Propose implements core.Strategy.
func (s *MICQEGO) Propose(ctx context.Context, model surrogate.Surrogate, st *core.State, q int, stream *rng.Stream) ([][]float64, error) {
	p := st.Problem
	batch := make([][]float64, 0, q)
	cur := model
	best := st.BestY
	round := 0
	for len(batch) < q {
		// One round: EI, then UCB at acq.UCB's default β = 2, each
		// proposing on the same model state (lines 6–9 of Algorithm 2).
		// These optimizations are independent and run concurrently via
		// the AF optimizer's parallel restarts.
		var roundPts [][]float64
		for ci, af := range []acq.Acquisition{
			&acq.EI{Best: best, Minimize: p.Minimize},
			&acq.UCB{Minimize: p.Minimize},
		} {
			if len(batch)+len(roundPts) >= q {
				break
			}
			x, _ := s.Opt.Maximize(ctx, cur, af, p.Lo, p.Hi, incumbent(st),
				stream.Split(uint64(round*16+ci)))
			roundPts = append(roundPts, x)
		}
		batch = append(batch, roundPts...)
		if len(batch) >= q {
			break
		}
		// Partial fit on believed values (line 11) once per round: one
		// O(n²) factor extension per believed point
		// (mat.Cholesky.ExtendCols, DESIGN.md §9.1).
		for _, x := range roundPts {
			mu, _ := cur.PredictWithGrad(x, nil, nil)
			fg, err := cur.Fantasize(x, mu)
			if err != nil {
				continue
			}
			cur = fg
			if p.Better(mu, best) {
				best = mu
			}
		}
		round++
	}
	return batch[:q], nil
}

// APParallelism implements core.Strategy. The per-round criterion
// optimizations could run concurrently (the paper notes this is "not
// implemented yet"), so the sequential accounting is kept.
func (s *MICQEGO) APParallelism(int) int { return 1 }
