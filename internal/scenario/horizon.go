package scenario

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/gp"
	"repro/internal/parallel"
	"repro/internal/strategy"
	"repro/internal/uphes"
)

// DaySpec identifies one rolling-horizon optimization cell: member m,
// day d, optimizing the next Horizon days from the carried reservoir
// state. It is wire-serializable — the serving tier ships it inside a
// session spec and rebuilds the identical problem on the server, since
// the generator regenerates any (member, day) window from Gen.Seed
// alone.
type DaySpec struct {
	// Gen is the ensemble configuration (the seed is the ensemble
	// identity).
	Gen GenConfig `json:"gen"`
	// Member and Day locate the cell in the ensemble.
	Member int `json:"member"`
	Day    int `json:"day"`
	// Horizon is the number of look-ahead days optimized jointly
	// (decision dimension = 12·Horizon); only day 0 is committed.
	Horizon int `json:"horizon"`
	// Start is the reservoir state carried into the horizon.
	Start uphes.PlantState `json:"start"`
	// SimLatencyNS is the simulated per-evaluation latency (default
	// 10s).
	SimLatencyNS time.Duration `json:"sim_latency_ns,omitempty"`
}

func (s *DaySpec) validate() error {
	if s.Member < 0 || s.Day < 0 {
		return fmt.Errorf("scenario: negative cell (member %d, day %d)", s.Member, s.Day)
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("scenario: non-positive horizon %d", s.Horizon)
	}
	return nil
}

// ProblemName is the deterministic problem identity of the cell; session
// resume validates checkpoints against it.
func (s *DaySpec) ProblemName() string {
	return fmt.Sprintf("uphes-scn-m%d-d%d-h%d", s.Member, s.Day, s.Horizon)
}

// Build assembles the cell's optimization problem: the horizon-tiled
// decision box over the constrained evaluator. The returned Constrained
// is the same instance the problem evaluates through, so its violation
// cache is shared with the model factory.
func (s *DaySpec) Build() (*core.Problem, *Constrained, error) {
	if err := s.validate(); err != nil {
		return nil, nil, err
	}
	base := uphes.DefaultConfig()
	base.Seed = s.Gen.Seed
	sim, err := uphes.New(base)
	if err != nil {
		return nil, nil, err
	}
	gen := NewGenerator(base, s.Gen)
	latency := s.SimLatencyNS
	if latency <= 0 {
		latency = 10 * time.Second
	}
	cons := &Constrained{
		Sim:     sim,
		Inputs:  gen.Days(s.Member, s.Day, s.Horizon),
		Start:   s.Start,
		Latency: latency,
	}
	dayLo, dayHi := sim.Bounds()
	lo := make([]float64, 0, s.Horizon*uphes.Dim)
	hi := make([]float64, 0, s.Horizon*uphes.Dim)
	for i := 0; i < s.Horizon; i++ {
		lo = append(lo, dayLo...)
		hi = append(hi, dayHi...)
	}
	prob := &core.Problem{
		Name:      s.ProblemName(),
		Lo:        lo,
		Hi:        hi,
		Minimize:  false,
		Evaluator: cons,
	}
	return prob, cons, nil
}

// OptConfig is the per-day engine configuration shared by every cell of
// a fleet run. Zero fields select the engine defaults; the Seed field is
// the fleet master seed from which each cell derives its own engine
// seed.
type OptConfig struct {
	// Strategy is a strategy registry name (default "mic-q-EGO").
	Strategy string `json:"strategy,omitempty"`
	// Mode is "" or "sync" for batch-synchronous, "async" for
	// asynchronous single-point scheduling.
	Mode string `json:"mode,omitempty"`
	// BatchSize and InitSamples map onto the engine.
	BatchSize   int `json:"batch_size,omitempty"`
	InitSamples int `json:"init_samples,omitempty"`
	// MaxCycles bounds each day's BO cycles (default 8). Days terminate
	// on cycle count, never on the virtual budget, so measured
	// fit/acquisition times cannot change the trace.
	MaxCycles int `json:"max_cycles,omitempty"`
	// OverheadFactor calibrates measured algorithm time (engine
	// default 6).
	OverheadFactor float64 `json:"overhead_factor,omitempty"`
	// Model carries the GP schedule knobs of both of the cell's GPs (zero
	// values defer to gp-side defaults, as the engine's default factory
	// does).
	Model core.ModelConfig `json:"model,omitempty"`
	// Seed is the fleet master seed.
	Seed uint64 `json:"seed"`
}

// Defaulted returns the configuration with the documented defaults
// applied — what the serving tier writes into a session spec, so the
// created session and a local run resolve identical engines.
func (o OptConfig) Defaulted() OptConfig { return o.withDefaults() }

func (o OptConfig) withDefaults() OptConfig {
	if o.Strategy == "" {
		o.Strategy = "mic-q-EGO"
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 8
	}
	return o
}

// Engine assembles the cell's core.Engine: the horizon problem, the
// named strategy, and the constrained two-GP model factory, with the
// engine seed derived from the fleet master seed so every cell is an
// independent reproducible run. Both the in-process runner and the
// serving tier build engines through here, so a session created
// remotely replays the identical run.
func (s *DaySpec) Engine(opt OptConfig) (*core.Engine, *Constrained, error) {
	opt = opt.withDefaults()
	prob, cons, err := s.Build()
	if err != nil {
		return nil, nil, err
	}
	strat, err := strategy.ByName(opt.Strategy)
	if err != nil {
		return nil, nil, err
	}
	mode, err := core.ParseMode(opt.Mode)
	if err != nil {
		return nil, nil, err
	}
	seed := DerivedSeed(opt.Seed, s.Member, s.Day)
	factory := NewConstrainedFactory(cons, gp.Config{
		Lo:           prob.Lo,
		Hi:           prob.Hi,
		Restarts:     opt.Model.Restarts,
		MaxIter:      opt.Model.MaxIter,
		FitSubsetMax: opt.Model.FitSubsetMax,
		Seed:         seed,
	}, opt.Model.RefitEvery)
	eng := &core.Engine{
		Problem:        prob,
		Strategy:       strat,
		Mode:           mode,
		BatchSize:      opt.BatchSize,
		InitSamples:    opt.InitSamples,
		MaxCycles:      opt.MaxCycles,
		Budget:         time.Duration(horizonBudget),
		OverheadFactor: opt.OverheadFactor,
		Pool:           &parallel.Pool{},
		Seed:           seed,
		Factory:        factory,
	}
	return eng, cons, nil
}

// DayRunner runs one cell's optimization to completion and returns its
// result. LocalRunner solves in-process; the serving tier's FleetRunner
// drives a pboserver session instead, so a fleet can outlive any single
// process.
type DayRunner interface {
	RunDay(ctx context.Context, spec *DaySpec, opt OptConfig) (*core.Result, error)
}

// LocalRunner is the in-process DayRunner: a closed-loop engine run per
// cell.
type LocalRunner struct{}

// RunDay implements DayRunner.
func (LocalRunner) RunDay(ctx context.Context, spec *DaySpec, opt OptConfig) (*core.Result, error) {
	eng, _, err := spec.Engine(opt)
	if err != nil {
		return nil, err
	}
	return eng.Run(ctx)
}

// DayRecord is the committed outcome of one operational day.
type DayRecord struct {
	Day int `json:"day"`
	// X is the committed 12-dimensional schedule (day 0 of the best
	// feasible horizon trace point).
	X []float64 `json:"x"`
	// Profit is the realized profit of the committed day.
	Profit float64 `json:"profit"`
	// Violation is the committed day's own constraint excess (0 when
	// the day ran feasibly).
	Violation float64 `json:"violation"`
	Feasible  bool    `json:"feasible"`
	// Fallback marks days committed from the idle fallback schedule
	// because no evaluated horizon point was feasible.
	Fallback bool `json:"fallback,omitempty"`
	// Switches is the committed day's pump↔turbine reversal count.
	Switches int `json:"switches"`
	// EndUpperFill is the upper reservoir fill carried to the next day.
	EndUpperFill float64 `json:"end_upper_fill"`
	// BestY is the optimized horizon objective of the selected point.
	BestY float64 `json:"best_y"`
	// Evals is the number of horizon evaluations the day's run spent.
	Evals int `json:"evals"`
}

// MemberResult is one ensemble member's year (or shorter window):
// committed days, total realized revenue, and violation accounting.
type MemberResult struct {
	Member        int              `json:"member"`
	Revenue       float64          `json:"revenue"`
	ViolatingDays int              `json:"violating_days"`
	Fallbacks     int              `json:"fallbacks"`
	Days          []DayRecord      `json:"days"`
	EndState      uphes.PlantState `json:"end_state"`
}

// commitDay selects the schedule to commit from a finished day run: the
// best-profit evaluated horizon point that satisfies every constraint,
// or the idle (all-zero) schedule when none does. Violations are
// recomputed deterministically from the spec, so the selection is
// identical whether the run happened in-process or behind a server.
func commitDay(cons *Constrained, res *core.Result, horizon int) (x []float64, bestY float64, fallback bool) {
	bestIdx := -1
	for i, xi := range res.X {
		if !cons.Feasible(xi) {
			continue
		}
		if bestIdx < 0 || res.Y[i] > bestY {
			bestIdx, bestY = i, res.Y[i]
		}
	}
	if bestIdx >= 0 {
		return res.X[bestIdx], bestY, false
	}
	zero := make([]float64, horizon*uphes.Dim)
	y, _ := cons.Eval(zero)
	return zero, y, true
}

// RunMember rolls one ensemble member through days [0, days): each day
// optimizes a Horizon-day window from the carried reservoir state via
// the runner, commits the first day of the best feasible point, realizes
// it on the member's actual day inputs, and carries the end state
// forward. The trajectory is a pure function of (configs, seed).
func RunMember(ctx context.Context, r DayRunner, gen GenConfig, opt OptConfig, member, days, horizon int, latency time.Duration) (*MemberResult, error) {
	base := uphes.DefaultConfig()
	state := uphes.DefaultState(&base.Plant)
	mr := &MemberResult{Member: member, Days: make([]DayRecord, 0, days)}
	for day := 0; day < days; day++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec := &DaySpec{
			Gen:          gen,
			Member:       member,
			Day:          day,
			Horizon:      horizon,
			Start:        state,
			SimLatencyNS: latency,
		}
		res, err := r.RunDay(ctx, spec, opt)
		if err != nil {
			return nil, fmt.Errorf("scenario: member %d day %d: %w", member, day, err)
		}
		// Rebuild the cell locally (cheap and deterministic) to judge
		// feasibility of the returned trace and to realize the committed
		// day.
		_, dayCons, err := spec.Build()
		if err != nil {
			return nil, err
		}
		x, bestY, fallback := commitDay(dayCons, res, horizon)
		b, next, dm := dayCons.Sim.SimulateDay(x[:uphes.Dim], state, &dayCons.Inputs[0])
		vio := dayCons.dayViolation(&dm)
		rec := DayRecord{
			Day:          day,
			X:            append([]float64(nil), x[:uphes.Dim]...),
			Profit:       b.Profit,
			Violation:    vio,
			Feasible:     fp.Zero(vio),
			Fallback:     fallback,
			Switches:     dm.Switches,
			EndUpperFill: next.UpperV / dayCons.Sim.Config().Plant.UpperVolumeMax,
			BestY:        bestY,
			Evals:        res.Evals,
		}
		mr.Days = append(mr.Days, rec)
		mr.Revenue += b.Profit
		if !rec.Feasible {
			mr.ViolatingDays++
		}
		if fallback {
			mr.Fallbacks++
		}
		state = next
	}
	mr.EndState = state
	return mr, nil
}
