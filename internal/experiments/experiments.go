// Package experiments reproduces every table and figure of the paper's
// evaluation: the benchmark-function studies (Tables 4–6, Figure 2), the
// UPHES management study (Table 7, Figures 3–7), the pairwise t-test
// heatmaps (Figure 8), the scalability study (Figure 9), and the protocol
// tables (Tables 1–3). Each artefact has a runner that produces the data
// and a renderer that prints the same rows/series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/benchfunc"
	"repro/internal/core"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/uphes"
)

// StudyConfig controls one algorithm × batch-size × replication sweep.
type StudyConfig struct {
	// Algorithms to compare (default: the paper's five).
	Algorithms []string
	// BatchSizes to sweep (default 1, 2, 4, 8, 16 — Table 2).
	BatchSizes []int
	// Replications per cell (paper: 10; the recorded reproduction uses
	// fewer — see EXPERIMENTS.md).
	Replications int
	// Budget is the virtual optimization budget (default 20 min).
	Budget time.Duration
	// SimLatency is the artificial per-simulation cost (default 10 s).
	SimLatency time.Duration
	// OverheadFactor calibrates Go algorithm time to the paper's stack
	// (default engine default).
	OverheadFactor float64
	// Seed is the master seed; replication r uses Seed+r for its initial
	// design, shared across algorithms and batch sizes as in the paper
	// ("10 distinct initial sets used for all approaches").
	Seed uint64
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
}

func (c StudyConfig) defaults() StudyConfig {
	if len(c.Algorithms) == 0 {
		c.Algorithms = strategy.Names
	}
	if len(c.BatchSizes) == 0 {
		c.BatchSizes = []int{1, 2, 4, 8, 16}
	}
	if c.Replications <= 0 {
		c.Replications = 10
	}
	if c.Budget <= 0 {
		c.Budget = 20 * time.Minute
	}
	if c.SimLatency <= 0 {
		c.SimLatency = 10 * time.Second
	}
	return c
}

// RunKey identifies one run in a study.
type RunKey struct {
	Algorithm string
	Batch     int
	Rep       int
}

// StudyResult holds all runs of a sweep.
type StudyResult struct {
	Problem  string
	Minimize bool
	Config   StudyConfig
	Runs     map[RunKey]*core.Result
}

// RunBenchmarkStudy sweeps the configured algorithms and batch sizes on
// one benchmark function with the paper's fixed 10 s artificial
// simulation cost (Tables 4–6, Figure 2).
func RunBenchmarkStudy(f benchfunc.Function, cfg StudyConfig) (*StudyResult, error) {
	cfg = cfg.defaults()
	ev := parallel.FixedCost(f.Eval, cfg.SimLatency)
	problem := &core.Problem{
		Name: f.Name, Lo: f.Lo, Hi: f.Hi, Minimize: true, Evaluator: ev,
	}
	return runStudy(problem, cfg)
}

// RunUPHESStudy sweeps the configured algorithms and batch sizes on the
// UPHES expected-profit simulator (Table 7, Figures 3–9).
func RunUPHESStudy(simCfg uphes.Config, cfg StudyConfig) (*StudyResult, error) {
	cfg = cfg.defaults()
	simCfg.SimLatency = cfg.SimLatency
	sim, err := uphes.New(simCfg)
	if err != nil {
		return nil, err
	}
	lo, hi := sim.Bounds()
	problem := &core.Problem{
		Name: "uphes", Lo: lo, Hi: hi, Minimize: false, Evaluator: sim,
	}
	return runStudy(problem, cfg)
}

func runStudy(problem *core.Problem, cfg StudyConfig) (*StudyResult, error) {
	res := &StudyResult{
		Problem:  problem.Name,
		Minimize: problem.Minimize,
		Config:   cfg,
		Runs:     make(map[RunKey]*core.Result),
	}
	for _, q := range cfg.BatchSizes {
		for _, alg := range cfg.Algorithms {
			for rep := 0; rep < cfg.Replications; rep++ {
				strat, err := strategy.ByName(alg)
				if err != nil {
					return nil, err
				}
				e := &core.Engine{
					Problem:        problem,
					Strategy:       strat,
					BatchSize:      q,
					Budget:         cfg.Budget,
					OverheadFactor: cfg.OverheadFactor,
					Seed:           cfg.Seed + uint64(rep),
				}
				run, err := e.Run(context.Background())
				if err != nil {
					return nil, fmt.Errorf("experiments: %s q=%d rep=%d: %w", alg, q, rep, err)
				}
				res.Runs[RunKey{alg, q, rep}] = run
				if cfg.Progress != nil {
					_, werr := fmt.Fprintf(cfg.Progress, "%s %-15s q=%-2d rep=%d best=%10.2f cycles=%3d evals=%4d\n",
						problem.Name, alg, q, rep, run.BestY, run.Cycles, run.Evals)
					if werr != nil {
						// Progress is best-effort; a dead writer must not
						// abort a long study, so stop writing to it.
						cfg.Progress = nil
					}
				}
			}
		}
	}
	return res, nil
}

// FinalValues returns the final best objective values per (algorithm,
// batch) cell.
func (r *StudyResult) FinalValues(alg string, q int) []float64 {
	var out []float64
	for rep := 0; rep < r.Config.Replications; rep++ {
		if run, ok := r.Runs[RunKey{alg, q, rep}]; ok {
			out = append(out, run.BestY)
		}
	}
	return out
}

// CellSummary summarizes one (algorithm, batch) cell.
func (r *StudyResult) CellSummary(alg string, q int) stats.Summary {
	return stats.Summarize(r.FinalValues(alg, q))
}

// EvalCounts returns the total simulation counts per replication of a
// cell (Figures 2 and 9a).
func (r *StudyResult) EvalCounts(alg string, q int) []float64 {
	var out []float64
	for rep := 0; rep < r.Config.Replications; rep++ {
		if run, ok := r.Runs[RunKey{alg, q, rep}]; ok {
			out = append(out, float64(run.Evals))
		}
	}
	return out
}

// CycleCounts returns the cycle counts per replication of a cell
// (Figure 9b).
func (r *StudyResult) CycleCounts(alg string, q int) []float64 {
	var out []float64
	for rep := 0; rep < r.Config.Replications; rep++ {
		if run, ok := r.Runs[RunKey{alg, q, rep}]; ok {
			out = append(out, float64(run.Cycles))
		}
	}
	return out
}

// ConvergencePoint is one step of an averaged best-so-far trace.
type ConvergencePoint struct {
	Evals    int
	Mean, SD float64
}

// ConvergenceTrace averages the best-so-far-vs-simulations curves of a
// cell over replications (Figures 3–7). As in the paper, the trace is
// truncated at the shortest replication so every plotted point averages
// all runs.
func (r *StudyResult) ConvergenceTrace(alg string, q int) []ConvergencePoint {
	var traces [][]float64
	minLen := -1
	for rep := 0; rep < r.Config.Replications; rep++ {
		run, ok := r.Runs[RunKey{alg, q, rep}]
		if !ok {
			continue
		}
		tr := run.BestTrace(r.Minimize)
		traces = append(traces, tr)
		if minLen < 0 || len(tr) < minLen {
			minLen = len(tr)
		}
	}
	if len(traces) == 0 {
		return nil
	}
	out := make([]ConvergencePoint, 0, minLen)
	vals := make([]float64, len(traces))
	for i := 0; i < minLen; i++ {
		for t, tr := range traces {
			vals[t] = tr[i]
		}
		s := stats.Summarize(vals)
		out = append(out, ConvergencePoint{Evals: i + 1, Mean: s.Mean, SD: s.SD})
	}
	return out
}

// PValueMatrix computes the pairwise Student's t-test p-values between
// algorithms' final values at one batch size (Figure 8).
func (r *StudyResult) PValueMatrix(q int) ([][]float64, []string, error) {
	order := append([]string(nil), r.Config.Algorithms...)
	samples := make(map[string][]float64, len(order))
	for _, alg := range order {
		samples[alg] = r.FinalValues(alg, q)
	}
	m, err := stats.PairwisePValues(samples, order)
	return m, order, err
}

// RandomSamplingReference reproduces the paper's §4 reference experiment:
// the best profit found by n uniform random UPHES schedules ("even
// considering a large random sample of almost 12,000 objective function
// evaluations, the best-observed profit is around EUR −1200").
func RandomSamplingReference(simCfg uphes.Config, n int, seed uint64) (best float64, summary stats.Summary, err error) {
	sim, err := uphes.New(simCfg)
	if err != nil {
		return 0, stats.Summary{}, err
	}
	lo, hi := sim.Bounds()
	rs := &optim.RandomSearch{Evals: n}
	res := rs.Minimize(func(x []float64) float64 { return -sim.Profit(x) }, lo, hi, rng.New(seed, 0))
	// Also collect the distribution for reporting.
	stream := rng.New(seed, 0)
	sample := make([]float64, 0, min(n, 2000))
	for i := 0; i < cap(sample); i++ {
		sample = append(sample, sim.Profit(stream.UniformVec(lo, hi)))
	}
	return -res.F, stats.Summarize(sample), nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// sortedBatches returns the study's batch sizes in ascending order.
func (r *StudyResult) sortedBatches() []int {
	qs := append([]int(nil), r.Config.BatchSizes...)
	sort.Ints(qs)
	return qs
}
