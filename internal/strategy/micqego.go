package strategy

import (
	"context"
	"fmt"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// Criterion names accepted by MICQEGO.
const (
	CritEI  = "EI"
	CritUCB = "UCB"
	CritPI  = "PI"
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
	// Criteria lists the infill criteria used per round (default
	// [EI, UCB]). The mix is an ablation axis; the paper suggests more
	// criteria as future work.
	Criteria []string
	// UCBBeta is the UCB exploration weight (default 2).
	UCBBeta float64
}

// NewMICQEGO returns the paper's EI+UCB configuration.
func NewMICQEGO() *MICQEGO {
	return &MICQEGO{Opt: DefaultAFOpt(), Criteria: []string{CritEI, CritUCB}}
}

// Name implements core.Strategy.
func (s *MICQEGO) Name() string { return "mic-q-EGO" }

// Reset implements core.Strategy (stateless).
func (s *MICQEGO) Reset() {}

// Observe implements core.Strategy (stateless).
func (s *MICQEGO) Observe(*core.State, [][]float64, []float64) {}

func (s *MICQEGO) criterion(name string, best float64, minimize bool) (acq.Acquisition, error) {
	switch name {
	case CritEI:
		return &acq.EI{Best: best, Minimize: minimize}, nil
	case CritUCB:
		return &acq.UCB{Beta: s.UCBBeta, Minimize: minimize}, nil
	case CritPI:
		return &acq.PI{Best: best, Minimize: minimize, Xi: 0.01}, nil
	}
	return nil, fmt.Errorf("strategy: unknown criterion %q", name)
}

// Propose implements core.Strategy.
func (s *MICQEGO) Propose(ctx context.Context, model surrogate.Surrogate, st *core.State, q int, stream *rng.Stream) ([][]float64, error) {
	p := st.Problem
	crits := s.Criteria
	if len(crits) == 0 {
		crits = []string{CritEI, CritUCB}
	}
	batch := make([][]float64, 0, q)
	cur := model
	best := st.BestY
	round := 0
	for len(batch) < q {
		// One round: every criterion proposes on the same model state
		// (lines 6–9 of Algorithm 2). These optimizations are independent
		// and run concurrently via the AF optimizer's parallel restarts.
		var roundPts [][]float64
		for ci, name := range crits {
			if len(batch)+len(roundPts) >= q {
				break
			}
			af, err := s.criterion(name, best, p.Minimize)
			if err != nil {
				return nil, err
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
			mu, _ := cur.Predict(x)
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
