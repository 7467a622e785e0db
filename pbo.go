// Package pbo is the public API of the parallel Bayesian optimization
// library reproducing Gobert et al., "Parallel Bayesian Optimization for
// Optimal Scheduling of Underground Pumped Hydro-Energy Storage Systems"
// (IPDPSW 2022; extended in Algorithms 15(12):446).
//
// The library provides five batch acquisition processes — KB-q-EGO,
// mic-q-EGO, MC-based q-EGO, BSP-EGO and TuRBO — on top of a from-scratch
// Gaussian process stack, a synthetic UPHES plant simulator, the paper's
// benchmark functions, and a virtual-clock engine that reproduces the
// paper's time-budgeted experimental protocol. See README.md for a tour
// and DESIGN.md for the architecture.
//
// Quick start:
//
//	problem, _ := pbo.UPHESProblem(pbo.DefaultUPHESConfig())
//	result, _ := pbo.Optimize(problem, pbo.Options{
//		Strategy:  "mic-q-EGO",
//		BatchSize: 4,
//		Budget:    20 * time.Minute, // virtual: replays in seconds
//		Seed:      1,
//	})
//	fmt.Println(result.BestY, result.BestX)
package pbo

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/benchfunc"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/strategy"
	"repro/internal/uphes"
)

// Problem is a black-box optimization problem with box bounds. Construct
// one with UPHESProblem, BenchmarkProblem or CustomProblem.
type Problem = core.Problem

// Result reports a finished optimization run: the incumbent, the full
// evaluation trace, and per-cycle history (timings, counts, best-so-far).
type Result = core.Result

// CycleRecord is one BO cycle in a Result's history.
type CycleRecord = core.CycleRecord

// ErrInterrupted is returned (wrapped) by OptimizeContext when the context
// is cancelled mid-run; the partial Result returned alongside it is valid.
var ErrInterrupted = core.ErrInterrupted

// Interrupted reports whether err stems from a cancelled optimization run
// (as opposed to a genuine failure). Convenience for
// errors.Is(err, ErrInterrupted).
func Interrupted(err error) bool { return errors.Is(err, ErrInterrupted) }

// UPHESConfig parameterizes the synthetic UPHES plant simulator.
type UPHESConfig = uphes.Config

// UPHESBreakdown itemizes one expected-profit evaluation.
type UPHESBreakdown = uphes.Breakdown

// DefaultUPHESConfig returns the calibrated Maizeret-like plant and
// market configuration used throughout the reproduction.
func DefaultUPHESConfig() UPHESConfig { return uphes.DefaultConfig() }

// Strategies lists the five batch acquisition processes, in the paper's
// presentation order. Any of these names is valid for Options.Strategy.
func Strategies() []string { return append([]string(nil), strategy.Names...) }

// Options configures one optimization run.
type Options struct {
	// Strategy names the batch acquisition process (one of Strategies();
	// default "mic-q-EGO", the paper's best performer on UPHES).
	Strategy string
	// BatchSize is q, the candidates evaluated in parallel per cycle
	// (default 4, the paper's recommended trade-off).
	BatchSize int
	// Budget is the virtual wall-clock optimization budget, excluding
	// the initial design (default 20 minutes).
	Budget time.Duration
	// InitSamples sizes the initial Latin Hypercube design (default
	// 16·BatchSize).
	InitSamples int
	// MaxCycles optionally bounds the number of BO cycles (0 = by budget
	// only).
	MaxCycles int
	// OverheadFactor scales measured model/acquisition time onto the
	// virtual clock (default: the calibrated factor documented in
	// DESIGN.md §2; set 1 for honest native timing).
	OverheadFactor float64
	// Seed makes the run fully reproducible.
	Seed uint64
}

// Optimize runs batch-parallel Bayesian optimization on the problem. It is
// OptimizeContext with context.Background() — use OptimizeContext to make
// runs cancellable or deadline-bound.
func Optimize(p *Problem, opts Options) (*Result, error) {
	return OptimizeContext(context.Background(), p, opts)
}

// OptimizeContext runs batch-parallel Bayesian optimization on the
// problem under a context. Cancelling ctx (or hitting its deadline) stops
// the run within the current cycle: in-flight simulator evaluations are
// drained, never abandoned, and OptimizeContext returns the partial Result
// accumulated so far together with an error for which Interrupted reports
// true. Note the budget in Options is virtual time on the experiment
// clock; a ctx deadline bounds real wall time — the two are independent.
func OptimizeContext(ctx context.Context, p *Problem, opts Options) (*Result, error) {
	name := opts.Strategy
	if name == "" {
		name = "mic-q-EGO"
	}
	strat, err := strategy.ByName(name)
	if err != nil {
		return nil, err
	}
	e := &core.Engine{
		Problem:        p,
		Strategy:       strat,
		BatchSize:      opts.BatchSize,
		InitSamples:    opts.InitSamples,
		Budget:         opts.Budget,
		MaxCycles:      opts.MaxCycles,
		OverheadFactor: opts.OverheadFactor,
		Seed:           opts.Seed,
	}
	return e.Run(ctx)
}

// UPHESProblem builds the UPHES expected-profit maximization problem from
// a simulator configuration.
func UPHESProblem(cfg UPHESConfig) (*Problem, error) {
	sim, err := uphes.New(cfg)
	if err != nil {
		return nil, err
	}
	lo, hi := sim.Bounds()
	return &Problem{
		Name:      "uphes",
		Lo:        lo,
		Hi:        hi,
		Minimize:  false,
		Evaluator: sim,
	}, nil
}

// UPHESSimulator builds a standalone simulator for direct evaluation and
// profit breakdowns (see UPHESBreakdown).
func UPHESSimulator(cfg UPHESConfig) (*uphes.Simulator, error) { return uphes.New(cfg) }

// BenchmarkProblem builds one of the paper's benchmark minimization
// problems ("rosenbrock", "ackley", "schwefel", plus "rastrigin", "levy",
// "griewank") in the given dimension, with an artificial per-evaluation
// cost (the paper uses 12 dimensions and 10 s).
func BenchmarkProblem(name string, dim int, simCost time.Duration) (*Problem, error) {
	f, err := benchfunc.ByName(name, dim)
	if err != nil {
		return nil, err
	}
	return &Problem{
		Name:      f.Name,
		Lo:        f.Lo,
		Hi:        f.Hi,
		Minimize:  true,
		Evaluator: parallel.FixedCost(f.Eval, simCost),
	}, nil
}

// CustomProblem wraps any objective function as a Problem. simCost is the
// virtual latency charged per evaluation (0 for a free function).
func CustomProblem(name string, f func(x []float64) float64, lo, hi []float64, minimize bool, simCost time.Duration) (*Problem, error) {
	if len(lo) == 0 || len(lo) != len(hi) {
		return nil, fmt.Errorf("pbo: invalid bounds (%d, %d)", len(lo), len(hi))
	}
	return &Problem{
		Name:      name,
		Lo:        append([]float64(nil), lo...),
		Hi:        append([]float64(nil), hi...),
		Minimize:  minimize,
		Evaluator: parallel.FixedCost(f, simCost),
	}, nil
}

// SaveResult writes a result as indented JSON (full trace and per-cycle
// history included) for archival and offline analysis.
func SaveResult(w io.Writer, r *Result) error { return r.WriteJSON(w) }

// LoadResult reads a result previously written with SaveResult.
func LoadResult(r io.Reader) (*Result, error) { return core.ReadResultJSON(r) }
