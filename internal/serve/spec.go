// Package serve exposes optimization sessions over HTTP: a JSON API for
// creating ask/tell sessions, handing out batches, ingesting evaluated
// results, and inspecting progress, plus a Go client for driving it. The
// server never evaluates the objective — workers do, wherever they run —
// it owns the surrogate, the acquisition, the virtual-time accounting and
// the crash-safe snapshots.
package serve

import (
	"fmt"
	"regexp"
	"time"

	"repro/internal/benchfunc"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/strategy"
	"repro/internal/uphes"
)

// ProblemSpec names an objective the server knows how to assemble. Three
// kinds exist: "uphes" (the paper's pumped-hydro scheduling simulator
// with its default plant and market, Dim = 12), "benchmark" (one of
// the paper's synthetic suite by name and dimension) and "scenario" (one
// rolling-horizon cell of a scenario-engine fleet: member m, day d,
// horizon h, constrained objective with the two-GP feasibility factory).
type ProblemSpec struct {
	Kind string `json:"kind"`
	// Name selects the benchmark function (benchmark kind only).
	Name string `json:"name,omitempty"`
	// Dim is the benchmark input dimension (benchmark kind only).
	Dim int `json:"dim,omitempty"`
	// Scenario locates the rolling-horizon cell (scenario kind only).
	// The server regenerates the cell's inputs from the embedded seeds —
	// the spec carries no data, only identity.
	Scenario *scenario.DaySpec `json:"scenario,omitempty"`
	// SimLatencyNS is the artificial per-simulation cost charged to the
	// virtual clock (default 10s, the paper's setting).
	SimLatencyNS int64 `json:"sim_latency_ns,omitempty"`
}

// SessionSpec is the create-session request body: everything needed to
// assemble a core.Engine deterministically, so the same spec resumed
// against the same snapshots replays the same run.
type SessionSpec struct {
	// ID names the session; it doubles as the snapshot directory name and
	// must match [A-Za-z0-9._-]+.
	ID      string      `json:"id"`
	Problem ProblemSpec `json:"problem"`
	// Strategy is a registry name: one of strategy.Names or an alias
	// strategy.ByName accepts. A name the registry does not know fails
	// create and resume alike with "strategy: unknown strategy".
	Strategy string `json:"strategy"`
	// Mode selects the engine protocol: "" or "sync" for the
	// batch-synchronous schedule, "async" for the asynchronous one
	// (single-point asks, BatchSize in-flight slots, a replacement ask
	// available after every tell).
	Mode string `json:"mode,omitempty"`
	// BatchSize, InitSamples, MaxCycles, Seed and OverheadFactor map
	// directly onto the engine; zero values select engine defaults.
	BatchSize      int              `json:"batch_size,omitempty"`
	InitSamples    int              `json:"init_samples,omitempty"`
	MaxCycles      int              `json:"max_cycles,omitempty"`
	BudgetNS       int64            `json:"budget_ns,omitempty"`
	OverheadFactor float64          `json:"overhead_factor,omitempty"`
	Seed           uint64           `json:"seed"`
	Model          core.ModelConfig `json:"model,omitempty"`
}

var idPattern = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// Caps on the spec's size fields. Each field sizes an allocation or a
// computation when the engine is built or first fitted, so a create
// request may not choose it at will. Every cap is above any value the
// repository's commands, tests and workloads use, and together they hold
// the defaulted initial design (InitSamples × Dim float64s, InitSamples
// defaulting to 16 × BatchSize) to 8 MiB: 1024 × 1024 × 8 bytes.
const (
	maxDim         = 1024 // benchmark input dimension
	maxHorizon     = 30   // scenario look-ahead days (dimension 12 × horizon)
	maxBatchSize   = 64
	maxInitSamples = 1024
	maxRestarts    = 64 // GP hyperparameter restarts per fit
)

// Validate checks the parts of the spec the server depends on before the
// engine's own validation runs: the ID becomes a directory name, so it is
// held to a strict charset, and the size fields are held to their caps.
func (s *SessionSpec) Validate() error {
	if !idPattern.MatchString(s.ID) {
		return fmt.Errorf("serve: session id %q must match %s", s.ID, idPattern)
	}
	if s.Strategy == "" {
		return fmt.Errorf("serve: session %s: empty strategy", s.ID)
	}
	horizon := 0
	switch s.Problem.Kind {
	case "uphes", "benchmark":
	case "scenario":
		if s.Problem.Scenario == nil {
			return fmt.Errorf("serve: session %s: scenario problem without a day spec", s.ID)
		}
		horizon = s.Problem.Scenario.Horizon
	default:
		return fmt.Errorf("serve: session %s: unknown problem kind %q", s.ID, s.Problem.Kind)
	}
	if s.Problem.Dim < 0 {
		return fmt.Errorf("serve: session %s: negative problem.dim %d", s.ID, s.Problem.Dim)
	}
	for _, f := range []struct {
		name     string
		v, limit int
	}{
		{"problem.dim", s.Problem.Dim, maxDim},
		{"scenario.horizon", horizon, maxHorizon},
		{"batch_size", s.BatchSize, maxBatchSize},
		{"init_samples", s.InitSamples, maxInitSamples},
		{"model.restarts", s.Model.Restarts, maxRestarts},
	} {
		if f.v > f.limit {
			return fmt.Errorf("serve: session %s: %s %d exceeds the cap of %d", s.ID, f.name, f.v, f.limit)
		}
	}
	if _, err := core.ParseMode(s.Mode); err != nil {
		return fmt.Errorf("serve: session %s: %w", s.ID, err)
	}
	return nil
}

// Engine assembles a fresh core.Engine from the spec. Each call returns
// an independent engine (fresh strategy instance, fresh evaluator) so
// create and resume never share mutable state.
func (s *SessionSpec) Engine() (*core.Engine, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	strat, err := strategy.ByName(s.Strategy)
	if err != nil {
		return nil, fmt.Errorf("serve: session %s: %w", s.ID, err)
	}
	if s.Problem.Kind == "scenario" {
		eng, err := s.scenarioEngine()
		if err != nil {
			return nil, fmt.Errorf("serve: session %s: %w", s.ID, err)
		}
		return eng, nil
	}
	problem, err := s.Problem.build()
	if err != nil {
		return nil, fmt.Errorf("serve: session %s: %w", s.ID, err)
	}
	mode, err := core.ParseMode(s.Mode)
	if err != nil {
		return nil, err
	}
	return &core.Engine{
		Problem:        problem,
		Mode:           mode,
		Strategy:       strat,
		BatchSize:      s.BatchSize,
		InitSamples:    s.InitSamples,
		MaxCycles:      s.MaxCycles,
		Budget:         time.Duration(s.BudgetNS),
		OverheadFactor: s.OverheadFactor,
		Pool:           &parallel.Pool{},
		Model:          s.Model,
		Seed:           s.Seed,
	}, nil
}

// scenarioEngine assembles the rolling-horizon cell's engine through
// scenario.DaySpec.Engine — the same constructor the in-process runner
// uses — so a session created remotely replays the identical run: same
// derived seed, same constrained two-GP factory, same MaxCycles-bounded
// schedule. BudgetNS is ignored for this kind (cells terminate on cycle
// count by construction).
func (s *SessionSpec) scenarioEngine() (*core.Engine, error) {
	spec := *s.Problem.Scenario
	if spec.SimLatencyNS <= 0 {
		spec.SimLatencyNS = s.Problem.simLatency()
	}
	eng, _, err := spec.Engine(scenario.OptConfig{
		Strategy:       s.Strategy,
		Mode:           s.Mode,
		BatchSize:      s.BatchSize,
		InitSamples:    s.InitSamples,
		MaxCycles:      s.MaxCycles,
		OverheadFactor: s.OverheadFactor,
		Model:          s.Model,
		Seed:           s.Seed,
	})
	return eng, err
}

func (p *ProblemSpec) simLatency() time.Duration {
	if p.SimLatencyNS <= 0 {
		return 10 * time.Second
	}
	return time.Duration(p.SimLatencyNS)
}

func (p *ProblemSpec) build() (*core.Problem, error) {
	switch p.Kind {
	case "uphes":
		cfg := uphes.DefaultConfig()
		cfg.SimLatency = p.simLatency()
		sim, err := uphes.New(cfg)
		if err != nil {
			return nil, err
		}
		lo, hi := cfg.Bounds()
		return &core.Problem{Name: "uphes", Lo: lo, Hi: hi, Minimize: false, Evaluator: sim}, nil
	case "benchmark":
		f, err := benchfunc.ByName(p.Name, p.Dim)
		if err != nil {
			return nil, err
		}
		ev := parallel.FixedCost(f.Eval, p.simLatency())
		return &core.Problem{Name: f.Name, Lo: f.Lo, Hi: f.Hi, Minimize: true, Evaluator: ev}, nil
	default:
		return nil, fmt.Errorf("unknown problem kind %q", p.Kind)
	}
}
