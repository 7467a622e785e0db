package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// fakeNow returns a deterministic measured-time source: each call advances
// a virtual wall clock by exactly 1ms. Two runs driven by independent
// fakeNow instances therefore measure identical fit/acq durations, which
// makes complete cycle records — not just the Y trace — comparable
// bit-for-bit across checkpoint/resume boundaries.
func fakeNow() func() time.Time {
	t0 := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

func askTellEngine(seed uint64) *Engine {
	e := quickEngine(sphereProblem(10*time.Second), &randomStrategy{})
	e.Seed = seed
	e.MaxCycles = 3
	e.Budget = time.Hour
	e.Pool = &parallel.Pool{Overhead: parallel.LinearOverhead(100*time.Millisecond, 50*time.Millisecond)}
	return e
}

// driveToCompletion runs the closed ask/tell loop by hand, mirroring what
// Engine.Run does internally.
func driveToCompletion(t *testing.T, e *Engine, at *AskTell) *Result {
	t.Helper()
	ctx := context.Background()
	for {
		b, err := at.Ask(ctx)
		if errors.Is(err, ErrDone) {
			return at.Result()
		}
		if err != nil {
			t.Fatal(err)
		}
		br, err := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, b.Points)
		if err != nil {
			t.Fatal(err)
		}
		if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAskTellMatchesRun: the manual ask/tell loop and Engine.Run must
// produce the identical search trajectory — Run is now nothing but this
// loop, and the golden traces in internal/strategy pin the same property
// against the pre-inversion engine.
func TestAskTellMatchesRun(t *testing.T) {
	ref, err := askTellEngine(11).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	e := askTellEngine(11)
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	got := driveToCompletion(t, e, at)

	if !reflect.DeepEqual(ref.X, got.X) || !reflect.DeepEqual(ref.Y, got.Y) {
		t.Fatal("manual ask/tell loop diverged from Engine.Run trace")
	}
	if !reflect.DeepEqual(ref.BestX, got.BestX) {
		t.Fatalf("best X differs: %v vs %v", ref.BestX, got.BestX)
	}
	//lint:ignore floatcmp trajectory equivalence must be bit-exact
	if ref.BestY != got.BestY {
		t.Fatalf("best Y differs: %v vs %v", ref.BestY, got.BestY)
	}
	if ref.Cycles != got.Cycles || ref.Evals != got.Evals || ref.InitEvals != got.InitEvals || ref.Fallbacks != got.Fallbacks {
		t.Fatalf("counters differ: %+v vs %+v", ref, got)
	}
}

// TestAskTellDesignGating: all design waves can be asked up front (for
// parallel external workers), but cycle batches are gated until every
// design result is told — the first model fit needs the full design.
func TestAskTellDesignGating(t *testing.T) {
	e := askTellEngine(3)
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var waves []*Batch
	for i := 0; i < e.InitSamples/e.BatchSize; i++ {
		b, err := at.Ask(ctx)
		if err != nil {
			t.Fatalf("design wave %d: %v", i, err)
		}
		if b.Cycle != 0 {
			t.Fatalf("wave %d has cycle %d, want 0", i, b.Cycle)
		}
		waves = append(waves, b)
	}
	if _, err := at.Ask(ctx); !errors.Is(err, ErrNoBatchReady) {
		t.Fatalf("cycle ask before design told: err = %v, want ErrNoBatchReady", err)
	}
	if got := len(at.Pending()); got != len(waves) {
		t.Fatalf("pending = %d, want %d", got, len(waves))
	}

	// Tell the waves out of order: last first.
	for i := len(waves) - 1; i >= 0; i-- {
		b := waves[i]
		br, err := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, b.Points)
		if err != nil {
			t.Fatal(err)
		}
		if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
			t.Fatal(err)
		}
	}

	if at.Elapsed() != 0 {
		t.Fatalf("design evaluations charged %v of budget", at.Elapsed())
	}
	b, err := at.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cycle != 1 {
		t.Fatalf("first acquisition batch has cycle %d", b.Cycle)
	}
	if at.Result().InitEvals != e.InitSamples {
		t.Fatalf("init evals = %d", at.Result().InitEvals)
	}
}

// TestAskTellSyncBarrier: a synchronous cycle batch is the only batch in
// flight. With it out, Ask refuses the next cycle with ErrNoBatchReady
// and leaves the run as it was; once it is told, the next cycle is asked.
func TestAskTellSyncBarrier(t *testing.T) {
	e := askTellEngine(8)
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tell := func(b *Batch) {
		t.Helper()
		br, err := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, b.Points)
		if err != nil {
			t.Fatal(err)
		}
		if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < e.InitSamples/e.BatchSize; i++ {
		b, err := at.Ask(ctx)
		if err != nil {
			t.Fatal(err)
		}
		tell(b)
	}
	b1, err := at.Ask(ctx)
	if err != nil || b1.Cycle != 1 || len(b1.Points) != e.BatchSize {
		t.Fatalf("cycle 1 ask: %+v, %v", b1, err)
	}
	elapsed := at.Elapsed()
	for i := 0; i < 2; i++ {
		if b, err := at.Ask(ctx); !errors.Is(err, ErrNoBatchReady) {
			t.Fatalf("ask with cycle 1 out: batch %+v, err %v; want ErrNoBatchReady", b, err)
		}
	}
	if at.Elapsed() != elapsed || len(at.Pending()) != 1 || at.Done() {
		t.Fatalf("refused ask moved the run: elapsed %v → %v, %d pending, done %v", elapsed, at.Elapsed(), len(at.Pending()), at.Done())
	}
	tell(b1)
	if b2, err := at.Ask(ctx); err != nil || b2.Cycle != 2 {
		t.Fatalf("cycle 2 ask after the tell: %+v, %v", b2, err)
	}
}

// TestAskTellDoneWaitsForEveryPoint: in both modes Ask answers ErrDone,
// and Done reports true, only once the cycles are spent and every asked
// point is told. The driver fills every slot and tells the oldest batch,
// so the last cycle is asked while points are still out; Ask must then
// answer ErrNoBatchReady until they are told.
func TestAskTellDoneWaitsForEveryPoint(t *testing.T) {
	for _, mode := range []Mode{Synchronous, Asynchronous} {
		t.Run(mode.String(), func(t *testing.T) {
			e := askTellEngine(9)
			e.Mode = mode
			at, err := NewAskTell(e)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			spentWithPointsOut := 0
			for {
				for {
					_, err := at.Ask(ctx)
					if errors.Is(err, ErrNoBatchReady) {
						break
					}
					if errors.Is(err, ErrDone) {
						if n := len(at.Pending()); n != 0 || !at.Done() {
							t.Fatalf("ErrDone with %d batches out, Done() = %v", n, at.Done())
						}
						q := e.BatchSize
						if mode == Asynchronous {
							q = 1
						}
						if want := e.InitSamples + e.MaxCycles*q; len(at.Result().Y) != want {
							t.Fatalf("done with %d evaluations, want %d", len(at.Result().Y), want)
						}
						if spentWithPointsOut == 0 {
							t.Fatal("the drive never had the cycles spent with points out")
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				pend := at.Pending()
				if len(pend) == 0 {
					t.Fatal("Ask not ready with nothing in flight")
				}
				if at.Done() {
					t.Fatalf("Done() with %d batches out", len(pend))
				}
				if at.cyclesDone() {
					spentWithPointsOut++
				}
				b := pend[0]
				br, err := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, b.Points)
				if err != nil {
					t.Fatal(err)
				}
				if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestAskTellTellValidation: unknown ids, double tells and misaligned
// slices are rejected without corrupting the run.
func TestAskTellTellValidation(t *testing.T) {
	e := askTellEngine(4)
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := at.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if err := at.Tell(b.ID+1000, make([]float64, len(b.Points)), nil); err == nil {
		t.Fatal("tell for unknown id accepted")
	}
	if err := at.Tell(b.ID, make([]float64, len(b.Points)+1), nil); err == nil {
		t.Fatal("tell with wrong y length accepted")
	}
	if err := at.Tell(b.ID, make([]float64, len(b.Points)), make([]time.Duration, 1)); err == nil {
		t.Fatal("tell with wrong cost length accepted")
	}
	if err := at.Tell(b.ID, make([]float64, len(b.Points)), nil); err != nil {
		t.Fatal(err)
	}
	if err := at.Tell(b.ID, make([]float64, len(b.Points)), nil); err == nil {
		t.Fatal("double tell accepted")
	}
}

// TestAskTellFatalFit: a model-fit failure is terminal — Ask reports it,
// the error is sticky, and the run refuses to checkpoint.
func TestAskTellFatalFit(t *testing.T) {
	e := askTellEngine(5)
	e.Factory = failFactory{}
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for {
		b, err := at.Ask(ctx)
		if err != nil {
			if errors.Is(err, ErrInterrupted) || errors.Is(err, ErrDone) {
				t.Fatalf("expected fatal fit error, got %v", err)
			}
			break
		}
		br, eerr := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, b.Points)
		if eerr != nil {
			t.Fatal(eerr)
		}
		if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := at.Ask(ctx); err == nil {
		t.Fatal("fatal error not sticky on Ask")
	}
	if err := at.Tell(0, nil, nil); err == nil {
		t.Fatal("fatal error not sticky on Tell")
	}
	if _, err := at.Checkpoint(); err == nil {
		t.Fatal("failed run checkpointed")
	}
}

type failFactory struct{}

func (failFactory) Fit(context.Context, *State, int) (surrogate.Surrogate, error) {
	return nil, errors.New("synthetic fit failure")
}

// TestAskTellCheckpointResume is the core-level resume-determinism
// property: for every tell boundary k, a run checkpointed after the k-th
// tell (through a JSON round-trip, as the snapshot store does) and resumed
// into a fresh engine finishes with a Result bit-identical to the
// uninterrupted reference — including History, whose measured components
// are pinned by the injected deterministic clock.
func TestAskTellCheckpointResume(t *testing.T) {
	ref := referenceResult(t, 21)
	totalTells := len(ref.History) + askTellEngine(21).InitSamples/askTellEngine(21).BatchSize

	for k := 1; k < totalTells; k++ {
		got := resumedResult(t, 21, k, false)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("resume after tell %d diverged:\nref %+v\ngot %+v", k, ref, got)
		}
	}
}

// TestAskTellCheckpointResumeWithPending checkpoints between Ask and Tell
// — the crash-mid-evaluation scenario — so the resumed run must carry the
// pending batch in its ledger and accept its (re-evaluated) results.
func TestAskTellCheckpointResumeWithPending(t *testing.T) {
	ref := referenceResult(t, 22)
	totalAsks := len(ref.History) + askTellEngine(22).InitSamples/askTellEngine(22).BatchSize

	for k := 1; k <= totalAsks; k++ {
		got := resumedResult(t, 22, k, true)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("resume with pending ask %d diverged:\nref %+v\ngot %+v", k, ref, got)
		}
	}
}

func referenceResult(t *testing.T, seed uint64) *Result {
	t.Helper()
	e := askTellEngine(seed)
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	at.SetNow(fakeNow())
	return driveToCompletion(t, e, at)
}

// resumedResult runs the ask/tell loop, snapshots after the k-th tell (or
// after the k-th ask when pending is true, leaving that batch in flight),
// round-trips the checkpoint through JSON, resumes into a fresh engine and
// drives the resumed run to completion.
func resumedResult(t *testing.T, seed uint64, k int, pending bool) *Result {
	t.Helper()
	e := askTellEngine(seed)
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	at.SetNow(fakeNow())
	ctx := context.Background()

	asks, tells := 0, 0
	var inflight []Batch
	for {
		b, err := at.Ask(ctx)
		if errors.Is(err, ErrDone) {
			t.Fatalf("run completed before boundary %d", k)
		}
		if err != nil {
			t.Fatal(err)
		}
		asks++
		if pending && asks == k {
			inflight = at.Pending()
			break
		}
		br, err := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, b.Points)
		if err != nil {
			t.Fatal(err)
		}
		if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
			t.Fatal(err)
		}
		tells++
		if !pending && tells == k {
			break
		}
	}

	cp, err := at.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var cp2 Checkpoint
	if err := json.Unmarshal(data, &cp2); err != nil {
		t.Fatal(err)
	}

	e2 := askTellEngine(seed)
	at2, err := ResumeAskTell(e2, &cp2)
	if err != nil {
		t.Fatal(err)
	}
	at2.SetNow(fakeNow())
	for _, b := range inflight {
		br, err := e2.Pool.EvalBatch(ctx, e2.Problem.Evaluator, b.Points)
		if err != nil {
			t.Fatal(err)
		}
		if err := at2.Tell(b.ID, br.Y, br.Costs); err != nil {
			t.Fatal(err)
		}
	}
	return driveToCompletion(t, e2, at2)
}

// TestResumeRejectsMismatchedConfig: a checkpoint only resumes against the
// configuration that produced it.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	e := askTellEngine(7)
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := at.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	wrongSeed := askTellEngine(8)
	if _, err := ResumeAskTell(wrongSeed, cp); err == nil {
		t.Fatal("mismatched seed accepted")
	}
	wrongBatch := askTellEngine(7)
	wrongBatch.BatchSize = 4
	wrongBatch.InitSamples = e.InitSamples
	if _, err := ResumeAskTell(wrongBatch, cp); err == nil {
		t.Fatal("mismatched batch size accepted")
	}
	if _, err := ResumeAskTell(askTellEngine(7), nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	bad := *cp
	bad.Pending = []PendingCheckpoint{{ID: bad.NextID + 3}}
	if _, err := ResumeAskTell(askTellEngine(7), &bad); err == nil {
		t.Fatal("pending id beyond next_id accepted")
	}
}

// TestAskTellContextCancellation mirrors the closed-loop contract: a
// cancelled context surfaces as an ErrInterrupted-wrapped error from Ask
// and the partial result stays valid.
func TestAskTellContextCancellation(t *testing.T) {
	e := askTellEngine(9)
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	b, err := at.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	br, err := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, b.Points)
	if err != nil {
		t.Fatal(err)
	}
	if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Remaining design waves still hand out (they were precomputed), but
	// once the design is told, the cycle ask must notice the cancellation.
	for {
		b, err := at.Ask(ctx)
		if err != nil {
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("err = %v, want ErrInterrupted wrap", err)
			}
			break
		}
		ys := make([]float64, len(b.Points))
		if err := at.Tell(b.ID, ys, nil); err != nil {
			t.Fatal(err)
		}
	}
	res := at.Result()
	if res.Cycles != 0 {
		t.Fatalf("cycles = %d after pre-cycle cancellation", res.Cycles)
	}
}

// cancellingStrategy delegates to an inner strategy but cancels the
// run's context from inside Propose on one chosen cycle — the shape of
// an HTTP timeout landing mid-acquisition.
type cancellingStrategy struct {
	inner  Strategy
	fireAt int
	cancel context.CancelFunc
	fired  bool
}

func (c *cancellingStrategy) Name() string            { return c.inner.Name() }
func (c *cancellingStrategy) Reset()                  { c.inner.Reset() }
func (c *cancellingStrategy) APParallelism(q int) int { return c.inner.APParallelism(q) }
func (c *cancellingStrategy) Observe(st *State, xs [][]float64, ys []float64) {
	c.inner.Observe(st, xs, ys)
}
func (c *cancellingStrategy) Propose(ctx context.Context, m surrogate.Surrogate, st *State, q int, stream *rng.Stream) ([][]float64, error) {
	if !c.fired && st.Cycle == c.fireAt {
		c.fired = true
		c.cancel()
		return nil, ctx.Err()
	}
	return c.inner.Propose(ctx, m, st, q, stream)
}

// cancellingFactory cancels the context from inside the model fit on one
// chosen cycle, before the inner factory is touched.
type cancellingFactory struct {
	inner  ModelFactory
	fireAt int
	cancel context.CancelFunc
	fired  bool
}

func (f *cancellingFactory) Fit(ctx context.Context, st *State, cycle int) (surrogate.Surrogate, error) {
	if !f.fired && cycle == f.fireAt {
		f.fired = true
		f.cancel()
		return nil, ctx.Err()
	}
	return f.inner.Fit(ctx, st, cycle)
}

// driveCancellable drives the loop with a cancellable context, minting a
// fresh context after each interruption (bind rewires the injected
// canceller to it) and asserting that an interrupted Ask charged nothing
// to the virtual budget. It returns the final result and how many
// interruptions were observed.
func driveCancellable(t *testing.T, e *Engine, at *AskTell, bind func(context.CancelFunc)) (*Result, int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	bind(cancel)
	interrupts := 0
	for {
		before := at.Elapsed()
		b, err := at.Ask(ctx)
		if errors.Is(err, ErrDone) {
			return at.Result(), interrupts
		}
		if errors.Is(err, ErrInterrupted) {
			interrupts++
			if interrupts > 5 {
				t.Fatal("run did not recover from cancellation")
			}
			if at.Elapsed() != before {
				t.Fatalf("cancelled Ask charged %v to the budget", at.Elapsed()-before)
			}
			ctx, cancel = context.WithCancel(context.Background())
			bind(cancel)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		br, err := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, b.Points)
		if err != nil {
			t.Fatal(err)
		}
		if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAskTellCancelledAskRollsBack is the transactionality property: an
// Ask cut short by context cancellation — in the acquisition or in the
// model fit — must leave no trace, so retrying it yields a run
// bit-identical to one that was never interrupted (full Result,
// History and virtual clock included).
func TestAskTellCancelledAskRollsBack(t *testing.T) {
	t.Run("acquisition", func(t *testing.T) {
		ref := referenceResult(t, 33)

		e := askTellEngine(33)
		cs := &cancellingStrategy{inner: e.Strategy, fireAt: 2}
		e.Strategy = cs
		at, err := NewAskTell(e)
		if err != nil {
			t.Fatal(err)
		}
		at.SetNow(fakeNow())
		got, interrupts := driveCancellable(t, e, at, func(c context.CancelFunc) { cs.cancel = c })
		if interrupts != 1 {
			t.Fatalf("interrupts = %d, want 1", interrupts)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("cancelled+retried run diverged from uninterrupted reference:\nref %+v\ngot %+v", ref, got)
		}
	})

	t.Run("model fit", func(t *testing.T) {
		ref := referenceResult(t, 34)

		e := askTellEngine(34)
		cfg := e.defaults()
		cf := &cancellingFactory{
			// Mirror NewAskTell's default factory so the inner fits match
			// the reference run's exactly.
			inner:  cfg.defaultFactory(),
			fireAt: 2,
		}
		e.Factory = cf
		at, err := NewAskTell(e)
		if err != nil {
			t.Fatal(err)
		}
		at.SetNow(fakeNow())
		got, interrupts := driveCancellable(t, e, at, func(c context.CancelFunc) { cf.cancel = c })
		if interrupts != 1 {
			t.Fatalf("interrupts = %d, want 1", interrupts)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("fit-cancelled run diverged from uninterrupted reference:\nref %+v\ngot %+v", ref, got)
		}
	})
}
