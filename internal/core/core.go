// Package core implements the paper's primary contribution: a
// time-budgeted, batch-parallel Bayesian optimization engine. Each cycle
// (i) fits a surrogate model to all observations, (ii) runs a pluggable
// batch acquisition process to select q candidates, and (iii) evaluates the
// batch in parallel. The engine runs against a virtual clock so that
// 20-minute experiments with 10-second simulations replay in seconds while
// reproducing the paper's time accounting, including the calibrated
// overhead factor between this Go stack and the original Python/BoTorch
// implementation (see DESIGN.md §2).
//
// The engine is model-agnostic: strategies consume the surrogate.Surrogate
// interface, and every cycle's fit goes through ModelFactory (default: the
// paper's GP with periodic hyperparameter refits), whose wall time is
// charged to FitTime. Runs are cancellable: Engine.Run takes a context
// and, once cancelled, drains in-flight evaluations, stops within the
// current cycle and returns the partial Result together with an error
// wrapping ErrInterrupted.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/gp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// ErrInterrupted is wrapped by the error Engine.Run returns when its
// context is cancelled mid-run. The accompanying *Result is valid but
// partial: it covers every cycle that completed before the interruption.
var ErrInterrupted = errors.New("core: run interrupted")

// Mode selects the engine's scheduling protocol.
type Mode int

const (
	// Synchronous is the paper's batch-synchronous protocol: every cycle
	// proposes q points at once and all q results must be told before the
	// next cycle can be asked. The zero value, so existing configurations
	// keep their exact behavior (the golden traces pin it bit-for-bit).
	Synchronous Mode = iota
	// Asynchronous removes the batch barrier: Ask hands out single-point
	// batches up to BatchSize in flight, and a replacement point becomes
	// available the moment any Tell lands. Still-busy points are treated
	// as Kriging-Believer fantasy observations during acquisition (a
	// point whose fantasy cannot be formed is skipped and counted in
	// AskTell.FantasyFallbacks), following aphBO-2GP-3B and GP-UCB-PE.
	// Each Tell advances the virtual clock to the told point's completion
	// time, so a run charges the same event-driven schedule a real
	// asynchronous worker pool would produce.
	Asynchronous
)

// String names the mode as the serve layer spells it.
func (m Mode) String() string {
	if m == Asynchronous {
		return "async"
	}
	return "sync"
}

// ParseMode reads a mode as String spells it; "" is Synchronous.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "sync":
		return Synchronous, nil
	case "async":
		return Asynchronous, nil
	}
	return 0, fmt.Errorf("core: unknown mode %q (want \"sync\" or \"async\")", s)
}

// Problem is a black-box optimization problem with box bounds.
type Problem struct {
	// Name identifies the problem in reports.
	Name string
	// Lo and Hi are the box bounds of the design space.
	Lo, Hi []float64
	// Minimize is true for minimization (the benchmark functions) and
	// false for maximization (the UPHES expected profit).
	Minimize bool
	// Evaluator is the expensive objective with its simulated latency.
	Evaluator parallel.Evaluator
}

// Dim returns the problem dimension.
func (p *Problem) Dim() int { return len(p.Lo) }

func (p *Problem) validate() error {
	if p == nil {
		return errors.New("core: nil problem")
	}
	if len(p.Lo) == 0 || len(p.Lo) != len(p.Hi) {
		return fmt.Errorf("core: invalid bounds (%d, %d)", len(p.Lo), len(p.Hi))
	}
	for i := range p.Lo {
		if !(p.Lo[i] < p.Hi[i]) {
			return fmt.Errorf("core: bounds[%d] = [%v, %v]", i, p.Lo[i], p.Hi[i])
		}
	}
	if p.Evaluator == nil {
		return errors.New("core: nil evaluator")
	}
	return nil
}

// Better reports whether a improves on b under the problem's sense.
func (p *Problem) Better(a, b float64) bool {
	if p.Minimize {
		return a < b
	}
	return a > b
}

// Clock is the virtual experiment clock. Simulated evaluation latency is
// added directly; measured algorithm time (model fitting, acquisition) is
// added scaled by OverheadFactor, the calibration constant between this Go
// implementation and the paper's Python stack.
type Clock struct {
	elapsed        time.Duration
	OverheadFactor float64
}

// NewClock returns a clock with the given overhead factor (values <= 0
// mean 1, i.e. honest Go-native timing).
func NewClock(factor float64) *Clock {
	if factor <= 0 {
		factor = 1
	}
	return &Clock{OverheadFactor: factor}
}

// AddSimulated advances the clock by a simulated duration.
func (c *Clock) AddSimulated(d time.Duration) { c.elapsed += d }

// AddMeasured advances the clock by a measured real duration scaled by the
// overhead factor, and returns the charge it added.
func (c *Clock) AddMeasured(d time.Duration) time.Duration {
	v := time.Duration(float64(d) * c.OverheadFactor)
	c.elapsed += v
	return v
}

// Elapsed returns the virtual time consumed so far.
func (c *Clock) Elapsed() time.Duration { return c.elapsed }

// AdvanceTo moves the clock forward to t if t is in the future and is a
// no-op otherwise. Asynchronous tells use it: a point's completion time
// (ask-time clock plus its evaluation latency) may lie before the current
// clock when a slower point told first — simulated time never runs
// backwards.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t > c.elapsed {
		c.elapsed = t
	}
}

// State is the evolving dataset of an optimization run, shared with the
// batch acquisition strategy.
type State struct {
	Problem *Problem
	// X and Y are all evaluated points and values, in evaluation order.
	X [][]float64
	Y []float64
	// BestX and BestY track the incumbent.
	BestX []float64
	BestY float64
	// Cycle is the index of the current cycle (0 during initial design).
	Cycle int
}

// Observe appends evaluated points and updates the incumbent.
func (s *State) Observe(xs [][]float64, ys []float64) {
	for i, x := range xs {
		s.X = append(s.X, mat.CloneVec(x))
		s.Y = append(s.Y, ys[i])
		if s.BestX == nil || s.Problem.Better(ys[i], s.BestY) {
			s.BestX = mat.CloneVec(x)
			s.BestY = ys[i]
		}
	}
}

// Strategy is a batch acquisition process: given the fitted surrogate and
// the run state, propose q candidates for parallel evaluation.
type Strategy interface {
	// Name identifies the AP (e.g. "KB-q-EGO").
	Name() string
	// Propose returns q candidate points inside the problem bounds. The
	// surrogate is whatever the engine's fit phase produced through its
	// ModelFactory — the paper's GP by default. Cancelling ctx may end
	// inner optimizer restarts early; Propose should then return promptly
	// with whatever it has (the engine discards the batch and stops the
	// run).
	Propose(ctx context.Context, model surrogate.Surrogate, st *State, q int, stream *rng.Stream) ([][]float64, error)
	// Observe notifies the strategy of the evaluated batch so it can
	// evolve internal state (trust region, space partition). Called after
	// State.Observe.
	Observe(st *State, xs [][]float64, ys []float64)
	// Reset clears run-specific state before a fresh run.
	Reset()
	// APParallelism reports the degree of internal parallelism of the
	// acquisition process for batch size q: 1 for the sequential APs
	// (KB, mic, MC, TuRBO), 2·q for BSP-EGO's per-leaf parallel
	// acquisition. The engine divides measured acquisition time by
	// min(APParallelism, BatchSize) when charging the virtual clock, which
	// reproduces the paper's multi-core time accounting on any host
	// (including single-core CI machines where goroutines cannot deliver
	// real speedup).
	APParallelism(q int) int
}

// ModelFactory produces the engine-side surrogate each cycle. It owns the
// warm-start policy across cycles (the default GP factory re-optimizes
// hyperparameters every RefitEvery-th cycle and only re-factorizes in
// between). Implementations may ignore ctx; the engine checks for
// cancellation at phase boundaries.
type ModelFactory interface {
	// Fit returns the surrogate for the given 1-based cycle, trained on
	// the current state.
	Fit(ctx context.Context, st *State, cycle int) (surrogate.Surrogate, error)
}

// gpFactory is the default ModelFactory: the paper's GP schedule. The
// hyperparameters are re-optimized on cycles 1, 1+RefitEvery, ...; other
// cycles re-factorize the fitted model on the extended data set.
type gpFactory struct {
	cfg        gp.Config
	refitEvery int
	model      *gp.GP
}

// Fit implements ModelFactory.
func (f *gpFactory) Fit(ctx context.Context, st *State, cycle int) (surrogate.Surrogate, error) {
	var (
		m   *gp.GP
		err error
	)
	switch {
	case f.model == nil:
		m, err = gp.Fit(st.X, st.Y, f.cfg)
	case (cycle-1)%f.refitEvery == 0:
		m, err = gp.Refit(f.model, st.X, st.Y)
	default:
		m, err = gp.WithData(f.model, st.X, st.Y)
	}
	if err != nil {
		return nil, err
	}
	f.model = m
	return m, nil
}

// CycleRecord captures one engine cycle for the paper's figures.
type CycleRecord struct {
	// Cycle is 1-based; cycle 0 is the initial design.
	Cycle int
	// Evals is the cumulative number of simulations after this cycle.
	Evals int
	// BestY is the incumbent value after this cycle.
	BestY float64
	// Virtual is the cumulative virtual time after this cycle.
	Virtual time.Duration
	// FitTime, AcqTime and EvalTime are this cycle's virtual durations.
	FitTime, AcqTime, EvalTime time.Duration
	// Fallback reports that acquisition failed this cycle and the batch
	// was drawn uniformly at random instead; FallbackReason says why.
	Fallback bool
	// FallbackReason is the acquisition error (or "empty batch") behind a
	// fallback; empty when Fallback is false.
	FallbackReason string
}

// Result reports a full optimization run.
type Result struct {
	Problem  string
	Strategy string
	Batch    int
	// BestX and BestY are the final incumbent.
	BestX []float64
	BestY float64
	// Cycles and Evals count completed acquisition cycles and total
	// simulations (including the initial design).
	Cycles, Evals int
	// InitEvals counts initial-design simulations.
	InitEvals int
	// Fallbacks counts cycles whose acquisition failed and fell back to
	// uniform-random candidates. A nonzero count flags runs whose trace
	// partially reflects random search rather than the strategy under
	// test.
	Fallbacks int
	// Virtual is the total virtual time consumed.
	Virtual time.Duration
	// History holds one record per cycle.
	History []CycleRecord
	// X and Y are the full evaluation trace.
	X [][]float64
	Y []float64
}

// Clone returns a deep copy of r sharing no memory with it. AskTell's
// Result aliases the run's live history and trace slices (rewritten on
// every tell), so anything that reads a Result outside the owner's
// lock — the HTTP result handler, most of all — must work on a clone.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	out := *r
	out.BestX = cloneVecOrNil(r.BestX)
	out.History = append([]CycleRecord(nil), r.History...)
	out.X = cloneMatrix(r.X)
	out.Y = cloneVecOrNil(r.Y)
	return &out
}

// cloneVecOrNil deep-copies a vector, preserving nil-ness (CloneVec
// turns nil into an empty slice, which would flip "no incumbent yet"
// checks against BestX).
func cloneVecOrNil(x []float64) []float64 {
	if x == nil {
		return nil
	}
	return mat.CloneVec(x)
}

// BestTrace returns the best-so-far value after each simulation, the
// quantity plotted in the paper's Figures 3–7.
func (r *Result) BestTrace(minimize bool) []float64 {
	out := make([]float64, len(r.Y))
	for i, y := range r.Y {
		if i == 0 {
			out[i] = y
			continue
		}
		best := out[i-1]
		if (minimize && y < best) || (!minimize && y > best) {
			best = y
		}
		out[i] = best
	}
	return out
}

// Engine runs time-budgeted batch-parallel BO.
type Engine struct {
	// Problem is the objective (required).
	Problem *Problem
	// Strategy is the batch acquisition process (required).
	Strategy Strategy
	// Mode selects the scheduling protocol: Synchronous (the default, the
	// paper's batch barrier) or Asynchronous (single-point replacement
	// asks, BatchSize points in flight, busy points fantasized).
	Mode Mode
	// BatchSize is q, the number of candidates per cycle (default 4, the
	// paper's recommended trade-off). In asynchronous mode it is the
	// in-flight cap — the number of simulator workers — rather than a
	// proposal size.
	BatchSize int
	// InitSamples sizes the initial Latin-Hypercube design (default
	// 16·BatchSize, Table 2). The initial design does not consume Budget,
	// matching the paper's protocol.
	InitSamples int
	// Budget is the virtual optimization time budget excluding the
	// initial design (default 20 minutes, Table 2).
	Budget time.Duration
	// MaxCycles optionally bounds the number of cycles (0 = unbounded).
	MaxCycles int
	// OverheadFactor calibrates measured Go algorithm time to the paper's
	// Python stack (default 6, chosen so that per-method cycle counts at
	// the paper's batch sizes match Figure 9b; use 1 for honest native
	// timing). See DESIGN.md §2.
	OverheadFactor float64
	// Pool evaluates batches; nil means an unbounded pool with the
	// default parallel-call overhead.
	Pool *parallel.Pool
	// Model configures GP fitting. Zero values select gp's own defaults
	// (2 restarts, 1 on warm refits; 50 L-BFGS iterations; no subset
	// cap) and a refit every 3rd cycle. Ignored when Factory is set.
	Model ModelConfig
	// Factory overrides the engine-side surrogate fit (default: the
	// paper's GP with the Model schedule).
	Factory ModelFactory
	// Seed makes the run deterministic.
	Seed uint64
}

// ModelConfig tunes surrogate fitting without exposing gp.Config directly.
// The surrogate is always the paper's Matérn-5/2 GP with fitted noise.
// Restarts, MaxIter and FitSubsetMax pass to gp.Config unchanged, so a
// zero value takes gp's default. The JSON tags are the session spec's
// "model" object.
type ModelConfig struct {
	Restarts     int `json:"restarts,omitempty"`
	MaxIter      int `json:"max_iter,omitempty"`
	FitSubsetMax int `json:"fit_subset_max,omitempty"`
	// RefitEvery re-optimizes hyperparameters every k-th cycle; the other
	// cycles only re-factorize with the data appended (default 3). Set 1
	// to optimize every cycle.
	RefitEvery int `json:"refit_every,omitempty"`
}

func (e *Engine) defaults() Engine {
	d := *e
	if d.BatchSize <= 0 {
		d.BatchSize = 4
	}
	if d.InitSamples <= 0 {
		d.InitSamples = 16 * d.BatchSize
	}
	if d.Budget <= 0 {
		d.Budget = 20 * time.Minute
	}
	if d.OverheadFactor <= 0 {
		d.OverheadFactor = 6
	}
	if d.Pool == nil {
		d.Pool = &parallel.Pool{Overhead: parallel.LinearOverhead(100*time.Millisecond, 50*time.Millisecond)}
	}
	if d.Model.RefitEvery <= 0 {
		d.Model.RefitEvery = 3
	}
	return d
}

// defaultFactory returns the paper's GP factory for a defaulted engine.
func (e *Engine) defaultFactory() *gpFactory {
	return &gpFactory{
		cfg: gp.Config{
			Lo:           e.Problem.Lo,
			Hi:           e.Problem.Hi,
			Restarts:     e.Model.Restarts,
			MaxIter:      e.Model.MaxIter,
			FitSubsetMax: e.Model.FitSubsetMax,
			Seed:         e.Seed,
		},
		refitEvery: e.Model.RefitEvery,
	}
}

// Run executes the optimization and returns its result. Since the ask/tell
// inversion, Run is a thin closed-loop client of AskTell: Ask for the next
// batch, evaluate it on the Pool, Tell the results, repeat — the phases,
// virtual-time accounting and rng stream consumption are bit-identical to
// the historical monolithic loop (the golden strategy traces pin this).
//
// ctx cancels the run: in-flight batch evaluations are drained (never
// abandoned mid-eval), the run stops within the current cycle, and Run
// returns the partial Result — consistent History, X, Y and counters
// covering every completed cycle — together with an error wrapping
// ErrInterrupted and the context's error. A nil ctx is treated as
// context.Background().
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	at, err := NewAskTell(e)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return runAskTell(ctx, at)
}

// interrupted wraps a phase cancellation so that callers can test both
// errors.Is(err, ErrInterrupted) and errors.Is(err, ctx.Err()).
func interrupted(phase string, cause error) error {
	return fmt.Errorf("%w during %s: %w", ErrInterrupted, phase, cause)
}

// dedupeBatch nudges candidates that collide with existing observations,
// with each other, or with still-busy (asked, untold) points; duplicate
// points make the GP gram matrix singular and waste a simulation. busy is
// nil in synchronous mode — no extra comparisons, no extra stream draws,
// so the golden traces are untouched.
func dedupeBatch(batch [][]float64, st *State, busy [][]float64, stream *rng.Stream) [][]float64 {
	p := st.Problem
	tol := 1e-9
	tooClose := func(a, b []float64) bool {
		var s float64
		for j := range a {
			w := (a[j] - b[j]) / (p.Hi[j] - p.Lo[j])
			s += w * w
		}
		return s < tol*tol
	}
	out := make([][]float64, 0, len(batch))
	for _, x := range batch {
		c := mat.CloneVec(x)
		for attempt := 0; attempt < 10; attempt++ {
			collision := false
			for _, prev := range st.X {
				if tooClose(c, prev) {
					collision = true
					break
				}
			}
			if !collision {
				for _, prev := range busy {
					if tooClose(c, prev) {
						collision = true
						break
					}
				}
			}
			if !collision {
				for _, prev := range out {
					if tooClose(c, prev) {
						collision = true
						break
					}
				}
			}
			if !collision {
				break
			}
			for j := range c {
				c[j] += 1e-4 * (p.Hi[j] - p.Lo[j]) * stream.Norm()
				if c[j] < p.Lo[j] {
					c[j] = p.Lo[j]
				} else if c[j] > p.Hi[j] {
					c[j] = p.Hi[j]
				}
			}
		}
		out = append(out, c)
	}
	return out
}
