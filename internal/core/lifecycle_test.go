package core

// Tests for the engine lifecycle: fallback reporting, context
// cancellation (partial results, drained workers) and attribution of
// model training to FitTime.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// erroringStrategy fails every proposal with a distinctive error.
type erroringStrategy struct{}

func (erroringStrategy) Name() string { return "erroring" }
func (erroringStrategy) Reset()       {}
func (erroringStrategy) Propose(context.Context, surrogate.Surrogate, *State, int, *rng.Stream) ([][]float64, error) {
	return nil, errors.New("acquisition exploded")
}
func (erroringStrategy) Observe(*State, [][]float64, []float64) {}
func (erroringStrategy) APParallelism(int) int                  { return 1 }

func TestEngineFallbackReported(t *testing.T) {
	p := sphereProblem(time.Second)

	// Empty proposals: fallback with the "empty batch" reason.
	e := quickEngine(p, failingStrategy{})
	e.Budget = time.Hour
	e.MaxCycles = 2
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks != res.Cycles || res.Cycles != 2 {
		t.Fatalf("fallbacks = %d, cycles = %d", res.Fallbacks, res.Cycles)
	}
	for _, rec := range res.History {
		if !rec.Fallback || rec.FallbackReason != "empty batch" {
			t.Fatalf("record not flagged as fallback: %+v", rec)
		}
	}

	// Failing proposals: the error text is preserved as the reason.
	e2 := quickEngine(p, erroringStrategy{})
	e2.Budget = time.Hour
	e2.MaxCycles = 1
	res2, err := e2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d", res2.Fallbacks)
	}
	if got := res2.History[0].FallbackReason; !strings.Contains(got, "acquisition exploded") {
		t.Fatalf("reason = %q", got)
	}

	// A healthy run reports no fallbacks.
	res3, err := quickEngine(p, &randomStrategy{}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res3.Fallbacks != 0 {
		t.Fatalf("healthy run reported %d fallbacks", res3.Fallbacks)
	}
	for _, rec := range res3.History {
		if rec.Fallback || rec.FallbackReason != "" {
			t.Fatalf("healthy record flagged: %+v", rec)
		}
	}
}

func TestEngineCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := sphereProblem(time.Second)
	res, err := quickEngine(p, &randomStrategy{}).Run(ctx)
	if err == nil {
		t.Fatal("expected an error from a pre-cancelled context")
	}
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("error does not wrap ErrInterrupted: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if res == nil {
		t.Fatal("partial result must be non-nil")
	}
	if res.Cycles != 0 || len(res.History) != 0 {
		t.Fatalf("cycles = %d, history = %d", res.Cycles, len(res.History))
	}
	if len(res.X) != len(res.Y) || res.Evals != len(res.Y) {
		t.Fatalf("inconsistent trace: X=%d Y=%d Evals=%d", len(res.X), len(res.Y), res.Evals)
	}
}

// cancellingEvaluator cancels a context when the eval counter hits a
// threshold, then evaluates normally (the in-flight member must finish).
type cancellingEvaluator struct {
	inner  parallel.Evaluator
	cancel context.CancelFunc
	at     int32
	n      atomic.Int32
}

func (c *cancellingEvaluator) Eval(x []float64) (float64, time.Duration) {
	if c.n.Add(1) == c.at {
		c.cancel()
	}
	return c.inner.Eval(x)
}

func TestEngineCancelMidRunPartialResult(t *testing.T) {
	before := runtime.NumGoroutine()

	p := sphereProblem(time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel while evaluating the first member of cycle 2's batch. With a
	// single pool worker the remaining members are skipped, the batch is
	// discarded, and the run must stop reporting exactly one completed
	// cycle.
	p.Evaluator = &cancellingEvaluator{inner: p.Evaluator, cancel: cancel, at: 8 + 2 + 1}
	e := quickEngine(p, &randomStrategy{})
	e.Budget = time.Hour
	e.MaxCycles = 10
	e.Pool = &parallel.Pool{Workers: 1}

	res, err := e.Run(ctx)
	if err == nil {
		t.Fatal("expected an interruption error")
	}
	if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v", err)
	}
	if res.Cycles != 1 || len(res.History) != 1 {
		t.Fatalf("cycles = %d, history = %d", res.Cycles, len(res.History))
	}
	// The discarded batch must not leak into the trace: 8 init evals, one
	// full cycle of 2, and the single drained member of the abandoned batch
	// is dropped wholesale.
	if res.Evals != 8+2 || len(res.Y) != res.Evals || len(res.X) != res.Evals {
		t.Fatalf("evals = %d, X = %d, Y = %d", res.Evals, len(res.X), len(res.Y))
	}
	if res.History[0].Evals != 10 {
		t.Fatalf("history evals = %d", res.History[0].Evals)
	}

	// All pool workers must have drained: no goroutines leaked.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestEngineCancelBetweenCycles(t *testing.T) {
	p := sphereProblem(time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel while evaluating the last member of cycle 2's batch: with a
	// single pool worker the batch completes and is told, so the run
	// stops at the next Ask's context check with two whole cycles.
	p.Evaluator = &cancellingEvaluator{inner: p.Evaluator, cancel: cancel, at: 8 + 2*2}
	e := quickEngine(p, &randomStrategy{})
	e.Budget = time.Hour
	e.MaxCycles = 10
	e.Pool = &parallel.Pool{Workers: 1}

	res, err := e.Run(ctx)
	if !errors.Is(err, ErrInterrupted) || !strings.Contains(err.Error(), "between cycles") {
		t.Fatalf("error = %v", err)
	}
	if res.Cycles != 2 || len(res.History) != 2 {
		t.Fatalf("cycles = %d, history = %d", res.Cycles, len(res.History))
	}
	if res.Evals != 8+2*2 {
		t.Fatalf("evals = %d", res.Evals)
	}
}

// stubSurrogate is a minimal surrogate for the fit-attribution test.
type stubSurrogate struct{}

func (stubSurrogate) PredictWithGrad(x, dMean, dSD []float64) (float64, float64) {
	for j := range dMean {
		dMean[j] = 0
		dSD[j] = 0
	}
	return 0, 1
}
func (stubSurrogate) PredictJoint([][]float64) (*surrogate.JointPrediction, error) {
	return nil, errors.New("stub: no joint posterior")
}
func (stubSurrogate) Fantasize([]float64, float64) (surrogate.Surrogate, error) {
	return nil, errors.New("stub: no conditioning update")
}
func (stubSurrogate) Lengthscales() []float64 { return []float64{1, 1} }

// slowFactory burns measurable time in Fit and returns the stub, so the
// attribution of model training to FitTime can be asserted.
type slowFactory struct {
	delay time.Duration
	fits  atomic.Int32
}

func (f *slowFactory) Fit(context.Context, *State, int) (surrogate.Surrogate, error) {
	f.fits.Add(1)
	time.Sleep(f.delay)
	return stubSurrogate{}, nil
}

// stubSeeingStrategy records whether Propose received the factory's model.
type stubSeeingStrategy struct {
	randomStrategy
	sawStub bool
}

func (s *stubSeeingStrategy) Propose(ctx context.Context, model surrogate.Surrogate, st *State, q int, stream *rng.Stream) ([][]float64, error) {
	if _, ok := model.(stubSurrogate); ok {
		s.sawStub = true
	}
	return s.randomStrategy.Propose(ctx, model, st, q, stream)
}

// TestFactoryFitTimeAttribution pins the paper's time split: the
// ModelFactory's training time lands in FitTime and never in AcqTime.
func TestFactoryFitTimeAttribution(t *testing.T) {
	const delay = 50 * time.Millisecond
	p := sphereProblem(time.Second)
	s := &stubSeeingStrategy{}
	f := &slowFactory{delay: delay}
	e := quickEngine(p, s)
	e.Budget = time.Hour
	e.MaxCycles = 2
	e.Factory = f
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := f.fits.Load(); got != 2 {
		t.Fatalf("Fit called %d times, want one per cycle (2)", got)
	}
	if !s.sawStub {
		t.Fatal("Propose did not receive the factory's surrogate")
	}
	for _, rec := range res.History {
		// OverheadFactor is 1 in quickEngine, so FitTime is the measured
		// training time; the sleep dominates it and must not leak into
		// AcqTime (random proposals are microseconds).
		if rec.FitTime < delay/2 {
			t.Fatalf("cycle %d FitTime = %v, training not attributed", rec.Cycle, rec.FitTime)
		}
		if rec.AcqTime >= delay/2 {
			t.Fatalf("cycle %d AcqTime = %v, training leaked into acquisition", rec.Cycle, rec.AcqTime)
		}
	}
}
