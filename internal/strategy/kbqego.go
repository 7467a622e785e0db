package strategy

import (
	"context"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// KBQEGO is q-EGO with the Kriging Believer heuristic of Ginsbourger, Le
// Riche and Carraro: candidates are selected sequentially by maximizing
// single-point EI, after each selection the model is conditioned on its
// own prediction ("fantasy" observation) without hyperparameter
// re-estimation, and the q candidates are then evaluated exactly in
// parallel.
type KBQEGO struct {
	// Opt configures the inner EI optimization.
	Opt AFOpt
}

// NewKBQEGO returns the strategy with default inner optimization.
func NewKBQEGO() *KBQEGO { return &KBQEGO{Opt: DefaultAFOpt()} }

// Name implements core.Strategy.
func (s *KBQEGO) Name() string { return "KB-q-EGO" }

// Reset implements core.Strategy (stateless).
func (s *KBQEGO) Reset() {}

// Observe implements core.Strategy (stateless).
func (s *KBQEGO) Observe(*core.State, [][]float64, []float64) {}

// Propose implements core.Strategy.
func (s *KBQEGO) Propose(ctx context.Context, model surrogate.Surrogate, st *core.State, q int, stream *rng.Stream) ([][]float64, error) {
	p := st.Problem
	batch := make([][]float64, 0, q)
	cur := model
	// The believed incumbent can improve during the fantasy loop when the
	// model predicts better-than-observed values at selected points.
	best := st.BestY
	for i := 0; i < q; i++ {
		ei := &acq.EI{Best: best, Minimize: p.Minimize}
		x, _ := s.Opt.Maximize(ctx, cur, ei, p.Lo, p.Hi, incumbent(st), stream.Split(uint64(i)))
		batch = append(batch, x)
		if i == q-1 {
			break
		}
		// Kriging Believer: trust the model's prediction as a stand-in
		// observation and condition on it (O(n²) partial update, no
		// hyperparameter re-estimation — the paper's "reduced budget"
		// intermediate fit). Every fantasy link extends the previous
		// factor by one row: one O(n²) copy and solve per link
		// (mat.Cholesky.ExtendCols, DESIGN.md §9.1).
		mu, _ := cur.PredictWithGrad(x, nil, nil)
		fg, err := cur.Fantasize(x, mu)
		if err != nil {
			// Keep selecting on the last valid model; duplicates are
			// handled by the engine's dedupe pass.
			continue
		}
		cur = fg
		if p.Better(mu, best) {
			best = mu
		}
	}
	return batch, nil
}

// APParallelism implements core.Strategy: the KB fantasy loop is
// inherently sequential.
func (s *KBQEGO) APParallelism(int) int { return 1 }
