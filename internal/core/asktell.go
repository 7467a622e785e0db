package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/gp"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// This file inverts the engine's control flow: instead of Engine.Run
// owning the evaluate step, an AskTell hands out batches (Ask) and ingests
// their results (Tell), so evaluations can happen anywhere — an in-process
// pool (Engine.Run is now a thin ask/tell client), external simulator
// workers behind the pboserver HTTP API, or a test harness. The phases
// of a cycle are unchanged: Ask fits the model and acquires the batch,
// Tell performs the observe/record bookkeeping, and the virtual-clock
// accounting and stream consumption order are identical to the closed
// loop — the golden strategy traces pin this bit-for-bit.

// ErrDone is returned by Ask when the run is complete: the virtual budget
// is exhausted or MaxCycles is reached. Result then reports the final
// outcome.
var ErrDone = errors.New("core: optimization complete")

// ErrNoBatchReady is returned by Ask when no new batch can be formed yet:
// either every initial-design point has been handed out but not all
// results have been told (so the first model fit cannot run), or — in
// asynchronous mode — all BatchSize in-flight slots are occupied. Callers
// should tell outstanding results and ask again.
var ErrNoBatchReady = errors.New("core: no batch ready until outstanding results are told")

// ErrNonFinite is wrapped by Tell when a told objective value is NaN or
// ±Inf. One such value would poison the GP's output standardization and
// every later fit, so the batch is rejected whole: it stays pending, and
// the run is left exactly as it was before the call. Tell the batch again
// with finite values to continue.
var ErrNonFinite = errors.New("core: non-finite objective value")

// Batch is one unit of work handed out by Ask: q points to evaluate.
// Cycle 0 identifies initial-design waves; acquisition batches carry their
// 1-based cycle number. Callers must not mutate Points.
type Batch struct {
	// ID identifies the batch in Tell. IDs are unique per AskTell and
	// increase in ask order.
	ID int `json:"id"`
	// Cycle is 0 for initial-design waves, the 1-based BO cycle otherwise.
	Cycle int `json:"cycle"`
	// Points are the candidates to evaluate, aligned with Tell's ys.
	Points [][]float64 `json:"points"`
}

// pendingBatch is the ledger entry of a handed-out, not-yet-told batch,
// including the Ask-side timings needed to complete the cycle record when
// the results arrive.
type pendingBatch struct {
	batch      Batch
	fitVirtual time.Duration
	acqVirtual time.Duration
	fallback   bool
	reason     string
	// start is the virtual clock at the moment an asynchronous cycle's
	// batch was handed out: its tell completes the point at start + its
	// evaluation latency. Zero in synchronous mode, which never reads it.
	start time.Duration
}

// AskTell is the inverted engine: a resumable optimization run driven by
// an external evaluation loop. It is not safe for concurrent use; callers
// that share one across goroutines (the session layer) must serialize
// access.
type AskTell struct {
	cfg   Engine
	clock *Clock
	st    *State
	res   *Result

	factory ModelFactory
	model   surrogate.Surrogate

	// The rng streams are split from the master in the same fixed order as
	// the closed loop always has (design=1, acq=2, jitter=3, fit=4), so
	// traces replay bit-identically. Nothing draws from fitStream (every
	// fit goes through the ModelFactory); it stays in the checkpoint so
	// the frame layout holds and v1–v3 snapshots decode unchanged.
	designStream *rng.Stream
	acqStream    *rng.Stream
	jitterStream *rng.Stream
	fitStream    *rng.Stream

	// now is the measured-time source (default time.Now). Tests inject a
	// deterministic clock to make FitTime/AcqTime — and therefore whole
	// cycle records — reproducible across kill/resume runs.
	now func() time.Time

	design      [][]float64
	designAsked int // design points handed out so far
	designTold  int // design points observed so far

	cycle    int // last cycle number handed out by Ask
	recorded int // completed (recorded) cycles

	nextID  int
	pending map[int]*pendingBatch
	order   []int // pending batch IDs in ask order, for deterministic snapshots

	// fantasyFallbacks counts asynchronous cycles that skipped a busy
	// point whose fantasy could not be formed.
	fantasyFallbacks int

	failed error // sticky fatal error (model fit failure)
}

// NewAskTell validates the engine configuration and opens a fresh
// ask/tell run: streams split, initial design generated, strategy reset.
// The Engine's Pool is used only for virtual-time accounting of told
// batches (never for evaluation), and its Evaluator is never called.
func NewAskTell(e *Engine) (*AskTell, error) {
	at, err := buildAskTell(e)
	if err != nil {
		return nil, err
	}
	master := rng.New(at.cfg.Seed, 0)
	at.designStream, at.acqStream = master.Split(1), master.Split(2)
	at.jitterStream, at.fitStream = master.Split(3), master.Split(4)
	p := at.cfg.Problem
	at.design = rng.ScaleToBounds(rng.LatinHypercube(at.cfg.InitSamples, p.Dim(), at.designStream), p.Lo, p.Hi)
	return at, nil
}

// buildAskTell is the part of opening a run that NewAskTell and
// ResumeAskTell share: the engine defaulted and validated, the strategy
// reset, the model factory made, and an empty run around them.
func buildAskTell(e *Engine) (*AskTell, error) {
	cfg := e.defaults()
	if err := cfg.Problem.validate(); err != nil {
		return nil, err
	}
	if cfg.Strategy == nil {
		return nil, errors.New("core: nil strategy")
	}
	cfg.Strategy.Reset()
	at := &AskTell{
		cfg:     cfg,
		clock:   NewClock(cfg.OverheadFactor),
		st:      &State{Problem: cfg.Problem},
		factory: cfg.Factory,
		//lint:ignore detorder sanctioned default for the injectable clock seam; tests swap it out
		now:     time.Now,
		pending: map[int]*pendingBatch{},
		res:     &Result{Problem: cfg.Problem.Name, Strategy: cfg.Strategy.Name(), Batch: cfg.BatchSize},
	}
	if at.factory == nil {
		at.factory = cfg.defaultFactory()
	}
	return at, nil
}

// SetNow overrides the measured-time source (default time.Now). Virtual
// fit/acquisition times are derived from it; injecting a deterministic
// clock makes complete cycle records — not just the Y trace — replay
// identically, which the kill-and-resume tests rely on.
func (at *AskTell) SetNow(now func() time.Time) {
	if now != nil {
		at.now = now
	}
}

// Ask returns the next batch of points to evaluate: initial-design waves
// of q first, then per-cycle acquisition batches (model fit + propose,
// charged to the virtual clock exactly as the closed loop charges them).
// It returns ErrDone when the budget or MaxCycles is exhausted,
// ErrNoBatchReady while initial-design results are still outstanding, an
// ErrInterrupted-wrapped error if ctx is cancelled, and a fatal error if
// the model fit fails (the run is then unusable).
//
// A cancelled Ask is transactional: the cycle's side effects — virtual
// clock charges, parent stream draws, warm-start state — are rolled back
// before the error returns, so a retried Ask (an HTTP timeout followed
// by a client retry, say) replays the cycle exactly as an uninterrupted
// run would have, keeping the session bit-identical on replay.
func (at *AskTell) Ask(ctx context.Context) (*Batch, error) {
	if at.failed != nil {
		return nil, at.failed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Asynchronous mode hands out single points, at most BatchSize in
	// flight; a full set of slots blocks the design and the cycles alike.
	async := at.cfg.Mode == Asynchronous
	if async && at.inFlightPoints() >= at.cfg.BatchSize {
		return nil, ErrNoBatchReady
	}

	// Initial-design phase: hand out precomputed Latin-Hypercube waves —
	// whole q-waves synchronously, single points asynchronously.
	if at.designAsked < len(at.design) {
		step := at.cfg.BatchSize
		if async {
			step = 1
		}
		end := min(at.designAsked+step, len(at.design))
		pb := at.addPending(0, at.design[at.designAsked:end], 0, 0, false, "")
		at.designAsked = end
		return &pb.batch, nil
	}
	if at.designTold < len(at.design) {
		return nil, ErrNoBatchReady
	}

	// Cycle phase. The guards run in the same order as the closed loop:
	// budget, MaxCycles, context.
	if at.cyclesDone() {
		return nil, ErrDone
	}
	if err := ctx.Err(); err != nil {
		return nil, interrupted("between cycles", err)
	}
	// With a cancellable context the cycle runs as a transaction: capture
	// the rewindable state up front and restore it if the fit or the
	// acquisition is cut short, so a retried Ask replays the cycle with
	// the same budget charge, the same stream draws and the same warm
	// starts as an uninterrupted run. A background context cannot cancel
	// and skips the capture.
	var rb *cycleRollback
	if ctx.Done() != nil {
		var err error
		if rb, err = at.captureCycle(); err != nil {
			return nil, err
		}
	}
	at.cycle++
	cycle := at.cycle
	at.st.Cycle = cycle

	fitVirtual, err := at.fitModel(ctx, cycle)
	if err != nil {
		if ctx.Err() != nil {
			if rerr := at.rollbackCycle(rb); rerr != nil {
				return nil, rerr
			}
			return nil, interrupted("model fit", ctx.Err())
		}
		at.failed = fmt.Errorf("core: cycle %d fit: %w", cycle, err)
		return nil, at.failed
	}

	// Asynchronous mode conditions on the busy points and asks for one
	// point that dedupes against them.
	model, q, busy := at.model, at.cfg.BatchSize, [][]float64(nil)
	if async {
		busy = at.busyPoints()
		model, q = at.conditionOnBusy(busy), 1
	}
	points, acqVirtual, fallback, reason, err := at.acquire(ctx, cycle, model, q, busy)
	if err != nil {
		if rerr := at.rollbackCycle(rb); rerr != nil {
			return nil, rerr
		}
		return nil, interrupted("acquisition", err)
	}
	pb := at.addPending(cycle, points, fitVirtual, acqVirtual, fallback, reason)
	if async {
		// The point's evaluation clock starts now — after the fit and the
		// acquisition have been charged — so its Tell completes it at
		// start + latency regardless of what other points do in between.
		pb.start = at.clock.Elapsed()
	}
	return &pb.batch, nil
}

// cyclesDone reports whether the budget or the cycle cap is exhausted.
func (at *AskTell) cyclesDone() bool {
	return at.clock.Elapsed() >= at.cfg.Budget || (at.cfg.MaxCycles > 0 && at.cycle >= at.cfg.MaxCycles)
}

// cycleRollback captures every piece of run state the cycle phase can
// mutate before its batch lands in the ledger: the virtual clock, the
// cycle counter, the current surrogate, the parent rng streams (Split
// consumes a parent draw, so even an aborted fit or propose advances
// them), and the factory's and strategy's checkpointable state.
type cycleRollback struct {
	cycle            int
	elapsed          time.Duration
	model            surrogate.Surrogate
	fantasyFallbacks int
	acqStream        []byte
	jitterStream     []byte
	factoryState     []byte
	strategyState    []byte
}

func (at *AskTell) captureCycle() (*cycleRollback, error) {
	factoryState, strategyState, err := at.saveState()
	if err != nil {
		return nil, err
	}
	return &cycleRollback{
		cycle:            at.cycle,
		elapsed:          at.clock.Elapsed(),
		model:            at.model,
		fantasyFallbacks: at.fantasyFallbacks,
		acqStream:        at.acqStream.State(),
		jitterStream:     at.jitterStream.State(),
		factoryState:     factoryState,
		strategyState:    strategyState,
	}, nil
}

// rollbackCycle rewinds a cancelled cycle to its captured state. A
// restore failure (or a cancellation that somehow arrived without a
// capture) leaves the run in an unknown state, so it is marked failed.
func (at *AskTell) rollbackCycle(rb *cycleRollback) error {
	if rb == nil {
		at.failed = errors.New("core: cancelled cycle has no rollback state")
		return at.failed
	}
	err := at.acqStream.Restore(rb.acqStream)
	if err == nil {
		err = at.jitterStream.Restore(rb.jitterStream)
	}
	if err == nil {
		err = at.restoreState(rb.factoryState, rb.strategyState)
	}
	if err != nil {
		at.failed = fmt.Errorf("core: rollback of cancelled cycle: %w", err)
		return at.failed
	}
	at.cycle = rb.cycle
	at.st.Cycle = rb.cycle
	at.clock.elapsed = rb.elapsed
	at.model = rb.model
	at.fantasyFallbacks = rb.fantasyFallbacks
	return nil
}

func (at *AskTell) addPending(cycle int, points [][]float64, fitVirtual, acqVirtual time.Duration, fallback bool, reason string) *pendingBatch {
	id := at.nextID
	at.nextID++
	pb := &pendingBatch{
		batch:      Batch{ID: id, Cycle: cycle, Points: points},
		fitVirtual: fitVirtual,
		acqVirtual: acqVirtual,
		fallback:   fallback,
		reason:     reason,
	}
	at.pending[id] = pb
	at.order = append(at.order, id)
	return pb
}

// Tell ingests the evaluation results of a previously asked batch: ys and
// costs align with the batch's Points. Acquisition batches charge the
// batch-synchronous virtual duration recomputed from costs under the
// engine Pool's worker model — exactly the value the closed loop's
// EvalBatch reports — then observe, notify the strategy and record the
// cycle. Initial-design waves only observe (the design never consumes
// budget). Batches may be told in any order. A NaN or ±Inf value rejects
// the whole tell with an error wrapping ErrNonFinite.
func (at *AskTell) Tell(id int, ys []float64, costs []time.Duration) error {
	if at.failed != nil {
		return at.failed
	}
	pb, ok := at.pending[id]
	if !ok {
		return fmt.Errorf("core: tell for unknown batch id %d (already told, or never asked)", id)
	}
	n := len(pb.batch.Points)
	if len(ys) != n {
		return fmt.Errorf("core: tell batch %d: %d values for %d points", id, len(ys), n)
	}
	if costs != nil && len(costs) != n {
		return fmt.Errorf("core: tell batch %d: %d costs for %d points", id, len(costs), n)
	}
	for m, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("core: tell batch %d member %d: value %v: %w", id, m, y, ErrNonFinite)
		}
	}
	if costs == nil {
		costs = make([]time.Duration, n)
	}
	at.removePending(id)

	if pb.batch.Cycle == 0 {
		at.st.Observe(pb.batch.Points, ys)
		at.designTold += n
		at.res.InitEvals = len(at.st.Y)
		return nil
	}

	evalVirtual := at.cfg.Pool.VirtualDuration(costs)
	if at.cfg.Mode == Asynchronous {
		// Event-driven accounting: the point completes at its ask-time
		// clock plus its own latency (plus the pool's per-call overhead,
		// via VirtualDuration on the singleton batch). Other points told
		// in between may already have moved the clock past that instant.
		at.clock.AdvanceTo(pb.start + evalVirtual)
	} else {
		at.clock.AddSimulated(evalVirtual)
	}
	at.st.Observe(pb.batch.Points, ys)
	at.cfg.Strategy.Observe(at.st, pb.batch.Points, ys)
	at.record(pb.batch.Cycle, pb.fitVirtual, pb.acqVirtual, evalVirtual, pb.fallback, pb.reason)
	return nil
}

func (at *AskTell) removePending(id int) {
	delete(at.pending, id)
	for i, v := range at.order {
		if v == id {
			at.order = append(at.order[:i], at.order[i+1:]...)
			break
		}
	}
}

// fitModel produces the cycle's surrogate (measured time, charged as
// FitTime) — the same phase the closed loop ran, moved behind Ask.
func (at *AskTell) fitModel(ctx context.Context, cycle int) (time.Duration, error) {
	fitStart := at.now()
	model, err := at.factory.Fit(ctx, at.st, cycle)
	fitReal := at.now().Sub(fitStart)
	if err != nil {
		return 0, err
	}
	at.model = model
	return at.clock.AddMeasured(fitReal), nil
}

// acquire selects the cycle's batch (measured time, charged as AcqTime),
// with the closed loop's fallback-to-random and dedupe behavior. The
// synchronous cycle passes the fitted model, q = BatchSize and no busy
// points; the asynchronous one passes the busy-conditioned model, q = 1
// and the in-flight points so replacements dedupe against them. A
// non-nil error is returned only for cancellation.
func (at *AskTell) acquire(ctx context.Context, cycle int, model surrogate.Surrogate, q int, busy [][]float64) (batch [][]float64, virtual time.Duration, fallback bool, reason string, err error) {
	cfg := &at.cfg
	acqStart := at.now()
	batch, perr := cfg.Strategy.Propose(ctx, model, at.st, q, at.acqStream.Split(uint64(cycle)))
	acqReal := at.now().Sub(acqStart)
	if cerr := ctx.Err(); cerr != nil {
		// A proposal cut short by cancellation is not a real batch; do
		// not fall back to random search on the user's way out.
		return nil, 0, false, "", cerr
	}
	if perr != nil || len(batch) == 0 {
		fallback = true
		if perr != nil {
			reason = perr.Error()
		} else {
			reason = "empty batch"
		}
		batch = rng.UniformDesign(q, cfg.Problem.Lo, cfg.Problem.Hi, at.jitterStream)
	}
	batch = dedupeBatch(batch, at.st, busy, at.jitterStream)
	speedup := cfg.Strategy.APParallelism(q)
	if speedup > cfg.BatchSize {
		speedup = cfg.BatchSize
	}
	if speedup < 1 {
		speedup = 1
	}
	acqReal /= time.Duration(speedup)
	return batch, at.clock.AddMeasured(acqReal), fallback, reason, nil
}

// record appends the cycle's history record.
func (at *AskTell) record(cycle int, fitVirtual, acqVirtual, evalVirtual time.Duration, fallback bool, reason string) {
	if fallback {
		at.res.Fallbacks++
	}
	rec := CycleRecord{
		Cycle:          cycle,
		Evals:          len(at.st.Y),
		BestY:          at.st.BestY,
		Virtual:        at.clock.Elapsed(),
		FitTime:        fitVirtual,
		AcqTime:        acqVirtual,
		EvalTime:       evalVirtual,
		Fallback:       fallback,
		FallbackReason: reason,
	}
	at.res.History = append(at.res.History, rec)
	at.recorded++
}

// Result seals and returns the run's result so far: final incumbent,
// counters, history and the full evaluation trace. It may be called at
// any time; pending (asked, untold) batches are not part of the result.
func (at *AskTell) Result() *Result {
	at.res.BestX = at.st.BestX
	at.res.BestY = at.st.BestY
	at.res.Cycles = at.recorded
	at.res.Evals = len(at.st.Y)
	at.res.Virtual = at.clock.Elapsed()
	at.res.X = at.st.X
	at.res.Y = at.st.Y
	return at.res
}

// Done reports whether Ask would return ErrDone: the design is complete
// and the budget or cycle cap is exhausted.
func (at *AskTell) Done() bool {
	return at.designTold >= len(at.design) && at.cyclesDone()
}

// Pending returns the ledger of asked-but-untold batches, in ask order.
func (at *AskTell) Pending() []Batch {
	out := make([]Batch, 0, len(at.order))
	for _, id := range at.order {
		out = append(out, at.pending[id].batch)
	}
	return out
}

// Elapsed returns the virtual time consumed so far.
func (at *AskTell) Elapsed() time.Duration { return at.clock.Elapsed() }

// runAskTell is the closed-loop driver: Engine.Run reduced to a thin
// ask/tell client around the evaluation pool. Error handling reproduces
// the historical Run contract exactly — phase-tagged ErrInterrupted wraps
// with a valid partial Result on cancellation, a nil Result on fatal fit
// errors.
func runAskTell(ctx context.Context, at *AskTell) (*Result, error) {
	cfg := &at.cfg
	for {
		b, err := at.Ask(ctx)
		switch {
		case errors.Is(err, ErrDone):
			return at.Result(), nil
		case errors.Is(err, ErrInterrupted):
			return at.Result(), err
		case err != nil:
			return nil, err
		}
		br, err := cfg.Pool.EvalBatch(ctx, cfg.Problem.Evaluator, b.Points)
		if err != nil {
			phase := "evaluation"
			if b.Cycle == 0 {
				phase = "initial design"
			}
			return at.Result(), interrupted(phase, err)
		}
		if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
			return nil, err
		}
	}
}

// ---- checkpoint / resume ----

// StrategyCheckpointer is an optional Strategy capability: strategies
// whose internal state evolves across cycles (TuRBO's trust region,
// BSP-EGO's partition tree) implement it so a resumed run replays
// byte-for-byte. Stateless strategies need not.
type StrategyCheckpointer interface {
	// StrategyState serializes the run-specific state.
	StrategyState() ([]byte, error)
	// RestoreStrategyState replaces the run-specific state with a
	// previously serialized one.
	RestoreStrategyState([]byte) error
}

// FactoryCheckpointer is an optional ModelFactory capability: factories
// that carry fitted state across cycles (the default GP factory's
// warm-start hyperparameters) implement it for checkpoint/resume.
type FactoryCheckpointer interface {
	FactoryState() ([]byte, error)
	RestoreFactoryState([]byte) error
}

// Checkpoint is the complete serializable state of an AskTell run at an
// operation boundary: history, incumbent, virtual clock, the four rng
// stream states, fitted model hyperparameters, strategy state and the
// pending-batch ledger. ([]byte fields serialize as base64 under
// encoding/json; float64 fields round-trip exactly.)
type Checkpoint struct {
	Problem  string `json:"problem"`
	Strategy string `json:"strategy"`
	Batch    int    `json:"batch"`
	Seed     uint64 `json:"seed"`
	// Mode is the scheduling protocol the checkpoint was taken under
	// (int value of core.Mode; absent means synchronous, so v1
	// checkpoints resume unchanged). It is part of run identity: an
	// asynchronous trace cannot be replayed by a synchronous engine.
	Mode int `json:"mode,omitempty"`

	ClockNS  int64 `json:"clock_ns"`
	Cycle    int   `json:"cycle"`
	Recorded int   `json:"recorded"`
	// FantasyFallbacks counts async cycles that skipped a busy point
	// whose fantasy could not be formed.
	FantasyFallbacks int `json:"fantasy_fallbacks,omitempty"`

	Design      [][]float64 `json:"design"`
	DesignAsked int         `json:"design_asked"`
	DesignTold  int         `json:"design_told"`

	X         [][]float64   `json:"x"`
	Y         []float64     `json:"y"`
	BestX     []float64     `json:"best_x,omitempty"`
	BestY     float64       `json:"best_y"`
	HaveBest  bool          `json:"have_best"`
	InitEvals int           `json:"init_evals"`
	Fallbacks int           `json:"fallbacks"`
	History   []CycleRecord `json:"history"`

	DesignStream []byte `json:"design_stream"`
	AcqStream    []byte `json:"acq_stream"`
	JitterStream []byte `json:"jitter_stream"`
	FitStream    []byte `json:"fit_stream"`

	FactoryState  []byte `json:"factory_state,omitempty"`
	StrategyState []byte `json:"strategy_state,omitempty"`

	Pending []PendingCheckpoint `json:"pending,omitempty"`
	NextID  int                 `json:"next_id"`
}

// PendingCheckpoint is the serialized ledger entry of an asked-but-untold
// batch, including the Ask-side virtual timings needed to complete its
// cycle record after resume.
type PendingCheckpoint struct {
	ID       int           `json:"id"`
	Cycle    int           `json:"cycle"`
	Points   [][]float64   `json:"points"`
	FitNS    time.Duration `json:"fit_ns"`
	AcqNS    time.Duration `json:"acq_ns"`
	Fallback bool          `json:"fallback,omitempty"`
	Reason   string        `json:"reason,omitempty"`
	// StartNS is the virtual clock at ask time (asynchronous mode only;
	// absent in synchronous checkpoints, which never read it).
	StartNS time.Duration `json:"start_ns,omitempty"`
}

// Checkpoint captures the run state at the current operation boundary. A
// run resumed from it (ResumeAskTell) replays byte-for-byte identically to
// this run continuing uninterrupted, provided the strategy and factory
// either are stateless or implement the corresponding checkpointer
// capability. A failed run cannot be checkpointed.
func (at *AskTell) Checkpoint() (*Checkpoint, error) {
	if at.failed != nil {
		return nil, fmt.Errorf("core: checkpoint of failed run: %w", at.failed)
	}
	c := &Checkpoint{
		Problem:  at.cfg.Problem.Name,
		Strategy: at.cfg.Strategy.Name(),
		Batch:    at.cfg.BatchSize,
		Seed:     at.cfg.Seed,
		Mode:     int(at.cfg.Mode),

		ClockNS:          int64(at.clock.Elapsed()),
		Cycle:            at.cycle,
		Recorded:         at.recorded,
		FantasyFallbacks: at.fantasyFallbacks,

		Design:      cloneMatrix(at.design),
		DesignAsked: at.designAsked,
		DesignTold:  at.designTold,

		X:         cloneMatrix(at.st.X),
		Y:         mat.CloneVec(at.st.Y),
		BestY:     at.st.BestY,
		HaveBest:  at.st.BestX != nil,
		InitEvals: at.res.InitEvals,
		Fallbacks: at.res.Fallbacks,
		History:   append([]CycleRecord(nil), at.res.History...),

		DesignStream: at.designStream.State(),
		AcqStream:    at.acqStream.State(),
		JitterStream: at.jitterStream.State(),
		FitStream:    at.fitStream.State(),

		NextID: at.nextID,
	}
	if at.st.BestX != nil {
		c.BestX = mat.CloneVec(at.st.BestX)
	}
	var err error
	if c.FactoryState, c.StrategyState, err = at.saveState(); err != nil {
		return nil, err
	}
	for _, id := range at.order {
		pb := at.pending[id]
		c.Pending = append(c.Pending, PendingCheckpoint{
			ID:       pb.batch.ID,
			Cycle:    pb.batch.Cycle,
			Points:   cloneMatrix(pb.batch.Points),
			FitNS:    pb.fitVirtual,
			AcqNS:    pb.acqVirtual,
			Fallback: pb.fallback,
			Reason:   pb.reason,
			StartNS:  pb.start,
		})
	}
	return c, nil
}

// ResumeAskTell rebuilds an AskTell from a checkpoint taken against the
// same engine configuration. Identity fields (problem, strategy, batch
// size, seed) are verified against the configuration; a mismatch is an
// error, since the resumed run could not replay the original.
func ResumeAskTell(e *Engine, c *Checkpoint) (*AskTell, error) {
	at, err := buildAskTell(e)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, errors.New("core: nil checkpoint")
	}
	cfg := &at.cfg
	if c.Problem != cfg.Problem.Name || c.Strategy != cfg.Strategy.Name() ||
		c.Batch != cfg.BatchSize || c.Seed != cfg.Seed || c.Mode != int(cfg.Mode) {
		return nil, fmt.Errorf("core: checkpoint (%s/%s q=%d seed=%d %s) does not match configuration (%s/%s q=%d seed=%d %s)",
			c.Problem, c.Strategy, c.Batch, c.Seed, Mode(c.Mode),
			cfg.Problem.Name, cfg.Strategy.Name(), cfg.BatchSize, cfg.Seed, cfg.Mode)
	}
	if len(c.Design) != cfg.InitSamples {
		return nil, fmt.Errorf("core: checkpoint has %d design points, configuration wants %d", len(c.Design), cfg.InitSamples)
	}
	for _, s := range []struct {
		name  string
		state []byte
		dst   **rng.Stream
	}{
		{"design", c.DesignStream, &at.designStream},
		{"acq", c.AcqStream, &at.acqStream},
		{"jitter", c.JitterStream, &at.jitterStream},
		{"fit", c.FitStream, &at.fitStream},
	} {
		if *s.dst, err = rng.FromState(s.state); err != nil {
			return nil, fmt.Errorf("core: restore %s stream: %w", s.name, err)
		}
	}
	if err := at.restoreState(c.FactoryState, c.StrategyState); err != nil {
		return nil, err
	}

	at.clock.elapsed = time.Duration(c.ClockNS)
	at.st.Cycle = c.Cycle
	at.design = cloneMatrix(c.Design)
	at.designAsked, at.designTold = c.DesignAsked, c.DesignTold
	at.cycle, at.recorded, at.nextID = c.Cycle, c.Recorded, c.NextID
	at.fantasyFallbacks = c.FantasyFallbacks
	at.res.InitEvals, at.res.Fallbacks = c.InitEvals, c.Fallbacks
	at.res.History = append([]CycleRecord(nil), c.History...)

	at.st.X = cloneMatrix(c.X)
	at.st.Y = mat.CloneVec(c.Y)
	if c.HaveBest {
		at.st.BestX = mat.CloneVec(c.BestX)
		at.st.BestY = c.BestY
	}
	if len(at.st.X) != len(at.st.Y) {
		return nil, fmt.Errorf("core: checkpoint trace inconsistent (%d points, %d values)", len(at.st.X), len(at.st.Y))
	}

	for _, pc := range c.Pending {
		if _, dup := at.pending[pc.ID]; dup || pc.ID >= c.NextID {
			return nil, fmt.Errorf("core: checkpoint pending batch id %d invalid", pc.ID)
		}
		at.pending[pc.ID] = &pendingBatch{
			batch:      Batch{ID: pc.ID, Cycle: pc.Cycle, Points: cloneMatrix(pc.Points)},
			fitVirtual: pc.FitNS,
			acqVirtual: pc.AcqNS,
			fallback:   pc.Fallback,
			reason:     pc.Reason,
			start:      pc.StartNS,
		}
		at.order = append(at.order, pc.ID)
	}
	return at, nil
}

// saveState serializes the model factory's and the strategy's
// checkpointable state, nil for a component without the capability.
// Checkpoint and the cycle rollback both take it.
func (at *AskTell) saveState() (factory, strategy []byte, err error) {
	if fc, ok := at.factory.(FactoryCheckpointer); ok {
		if factory, err = fc.FactoryState(); err != nil {
			return nil, nil, fmt.Errorf("core: factory state: %w", err)
		}
	}
	if sc, ok := at.cfg.Strategy.(StrategyCheckpointer); ok {
		if strategy, err = sc.StrategyState(); err != nil {
			return nil, nil, fmt.Errorf("core: strategy state: %w", err)
		}
	}
	return factory, strategy, nil
}

// restoreState puts back what saveState took; a nil state leaves its
// component as it is. ResumeAskTell and the cycle rollback both use it.
func (at *AskTell) restoreState(factory, strategy []byte) error {
	if strategy != nil {
		sc, ok := at.cfg.Strategy.(StrategyCheckpointer)
		if !ok {
			return fmt.Errorf("core: checkpoint carries strategy state but %s cannot restore it", at.cfg.Strategy.Name())
		}
		if err := sc.RestoreStrategyState(strategy); err != nil {
			return fmt.Errorf("core: restore strategy state: %w", err)
		}
	}
	if factory != nil {
		fc, ok := at.factory.(FactoryCheckpointer)
		if !ok {
			return errors.New("core: checkpoint carries factory state but the model factory cannot restore it")
		}
		if err := fc.RestoreFactoryState(factory); err != nil {
			return fmt.Errorf("core: restore factory state: %w", err)
		}
	}
	return nil
}

func cloneMatrix(xs [][]float64) [][]float64 {
	if xs == nil {
		return nil
	}
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = mat.CloneVec(x)
	}
	return out
}

// gpFactoryState is the serialized form of the default GP factory: the
// fitted hyperparameter state (nil before the first fit).
type gpFactoryState struct {
	Hyper *gp.HyperState `json:"hyper,omitempty"`
}

// FactoryState implements FactoryCheckpointer. Only the warm-start fields
// of the fitted model are captured: Refit and WithData read nothing else
// from their previous-model argument, and the next cycle's fit rebuilds
// the factor on current data anyway.
func (f *gpFactory) FactoryState() ([]byte, error) {
	var s gpFactoryState
	if f.model != nil {
		s.Hyper = f.model.HyperState()
	}
	return json.Marshal(&s)
}

// RestoreFactoryState implements FactoryCheckpointer: the restored model
// is a hyperparameter donor valid as the Refit/WithData previous-model
// argument, which is the factory's only use of it.
func (f *gpFactory) RestoreFactoryState(data []byte) error {
	var s gpFactoryState
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("gp factory state: %w", err)
	}
	if s.Hyper == nil {
		f.model = nil
		return nil
	}
	m, err := gp.RestoreHyperDonor(s.Hyper)
	if err != nil {
		return fmt.Errorf("gp factory state: %w", err)
	}
	f.model = m
	return nil
}
