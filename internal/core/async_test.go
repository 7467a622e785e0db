package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

func asyncEngine(seed uint64) *Engine {
	e := quickEngine(sphereProblem(10*time.Second), &randomStrategy{})
	e.Seed = seed
	e.Mode = Asynchronous
	e.BatchSize = 3
	e.InitSamples = 6
	e.MaxCycles = 4
	e.Budget = time.Hour
	e.Pool = &parallel.Pool{Overhead: parallel.LinearOverhead(100*time.Millisecond, 50*time.Millisecond)}
	return e
}

// driveAsyncUntil drives the deterministic async schedule: fill every free
// in-flight slot, then tell the NEWEST pending point (LIFO — a worst-case
// out-of-ask-order completion order that is nevertheless a pure function
// of engine state, so it can be resumed mid-flight from a checkpoint and
// replay identically). stopAfter > 0 stops after that many operations
// (successful asks + tells) and returns (nil, false); stopAfter < 0 runs
// to completion.
func driveAsyncUntil(t *testing.T, e *Engine, at *AskTell, stopAfter int) (*Result, bool) {
	t.Helper()
	ctx := context.Background()
	ops := 0
	boundary := func() bool { ops++; return stopAfter >= 0 && ops == stopAfter }
	for {
		filling := true
		for filling {
			_, err := at.Ask(ctx)
			switch {
			case err == nil:
				if boundary() {
					return nil, false
				}
			case errors.Is(err, ErrNoBatchReady), errors.Is(err, ErrDone):
				filling = false
			default:
				t.Fatal(err)
			}
		}
		pend := at.Pending()
		if len(pend) == 0 {
			if !at.Done() {
				t.Fatal("no pending work but run not done")
			}
			return at.Result(), true
		}
		b := pend[len(pend)-1]
		br, err := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, b.Points)
		if err != nil {
			t.Fatal(err)
		}
		if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
			t.Fatal(err)
		}
		if boundary() {
			return nil, false
		}
	}
}

func driveAsyncToCompletion(t *testing.T, e *Engine, at *AskTell) *Result {
	t.Helper()
	res, done := driveAsyncUntil(t, e, at, -1)
	if !done {
		t.Fatal("async drive stopped early")
	}
	return res
}

// TestAsyncSinglePointAsks pins the asynchronous protocol shape: design
// and cycle batches carry exactly one point, at most BatchSize points are
// in flight, a replacement Ask becomes available the moment one Tell
// lands, and the final counters are coherent (one history record per
// cycle, one evaluation per record).
func TestAsyncSinglePointAsks(t *testing.T) {
	e := asyncEngine(41)
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var open []*Batch
	for i := 0; i < e.BatchSize; i++ {
		b, err := at.Ask(ctx)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if len(b.Points) != 1 {
			t.Fatalf("async batch has %d points, want 1", len(b.Points))
		}
		open = append(open, b)
	}
	if _, err := at.Ask(ctx); !errors.Is(err, ErrNoBatchReady) {
		t.Fatalf("ask with full slots: err = %v, want ErrNoBatchReady", err)
	}

	br, err := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, open[0].Points)
	if err != nil {
		t.Fatal(err)
	}
	if err := at.Tell(open[0].ID, br.Y, br.Costs); err != nil {
		t.Fatal(err)
	}
	if _, err := at.Ask(ctx); err != nil {
		t.Fatalf("replacement ask after one tell: %v", err)
	}

	// Drain and finish; counters must line up with single-point cycles.
	res := driveAsyncToCompletion(t, e, at)
	if res.InitEvals != e.InitSamples {
		t.Fatalf("init evals = %d, want %d", res.InitEvals, e.InitSamples)
	}
	if res.Cycles != e.MaxCycles || len(res.History) != res.Cycles {
		t.Fatalf("cycles = %d (history %d), want %d", res.Cycles, len(res.History), e.MaxCycles)
	}
	if res.Evals != res.InitEvals+res.Cycles {
		t.Fatalf("evals = %d, want %d", res.Evals, res.InitEvals+res.Cycles)
	}
	if res.Virtual <= 0 {
		t.Fatal("no virtual time charged")
	}
	if at.FantasyFallbacks() != 0 {
		t.Fatalf("GP run used %d penalty fallbacks", at.FantasyFallbacks())
	}
}

// TestAsyncClockNeverRewinds: asynchronous tells advance the clock to each
// point's completion instant (ask-time clock + latency); a point whose
// completion lies in the past — a fast point told after a slow one — must
// not move time backwards.
func TestAsyncClockNeverRewinds(t *testing.T) {
	e := asyncEngine(42)
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	prev := time.Duration(0)
	for {
		// One operation at a time: the schedule is a pure function of
		// engine state, so repeated one-op drives replay the same run.
		_, done := driveAsyncUntil(t, e, at, 1)
		if at.Elapsed() < prev {
			t.Fatalf("clock rewound: %v -> %v", prev, at.Elapsed())
		}
		prev = at.Elapsed()
		if done {
			break
		}
	}
}

// TestAsyncKillAndResume is the core-layer async determinism property (the
// check.sh race gate re-runs it by name): for every operation boundary k
// of the deterministic LIFO schedule — including boundaries with up to
// BatchSize points mid-flight — a run checkpointed at k (JSON round-trip,
// as the snapshot store does) and resumed into a fresh engine finishes
// bit-identical to the uninterrupted reference, pending fantasized points
// and all.
func TestAsyncKillAndResume(t *testing.T) {
	refEngine := asyncEngine(43)
	refAT, err := NewAskTell(refEngine)
	if err != nil {
		t.Fatal(err)
	}
	refAT.SetNow(fakeNow())
	ref := driveAsyncToCompletion(t, refEngine, refAT)

	total := 2 * (ref.InitEvals + ref.Cycles) // every ask + every tell
	for k := 1; k < total; k++ {
		e := asyncEngine(43)
		at, err := NewAskTell(e)
		if err != nil {
			t.Fatal(err)
		}
		at.SetNow(fakeNow())
		if _, done := driveAsyncUntil(t, e, at, k); done {
			t.Fatalf("boundary %d: run completed before checkpoint", k)
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

		e2 := asyncEngine(43)
		at2, err := ResumeAskTell(e2, &cp2)
		if err != nil {
			t.Fatal(err)
		}
		at2.SetNow(fakeNow())
		got := driveAsyncToCompletion(t, e2, at2)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("async resume at op %d diverged:\nref %+v\ngot %+v", k, ref, got)
		}
	}
}

// TestAsyncEngineRun: Engine.Run in asynchronous mode degenerates to a
// sequential ask-eval-tell loop (slots never fill) but must still complete
// with coherent single-point accounting.
func TestAsyncEngineRun(t *testing.T) {
	e := asyncEngine(44)
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != e.MaxCycles || res.Evals != res.InitEvals+res.Cycles {
		t.Fatalf("run counters: %+v", res)
	}
}

// TestAsyncModeIsCheckpointIdentity: an asynchronous checkpoint must not
// resume into a synchronous engine (or vice versa) — the schedules are not
// interchangeable.
func TestAsyncModeIsCheckpointIdentity(t *testing.T) {
	e := asyncEngine(45)
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := at.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	sync := asyncEngine(45)
	sync.Mode = Synchronous
	if _, err := ResumeAskTell(sync, cp); err == nil {
		t.Fatal("async checkpoint resumed into synchronous engine")
	}
}

// noFantasySurrogate is a minimal surrogate whose Fantasize always
// fails: mean = Σx, sd = 2.
type noFantasySurrogate struct{}

func (noFantasySurrogate) PredictWithGrad(x []float64, dMean, dSD []float64) (float64, float64) {
	var s float64
	for _, v := range x {
		s += v
	}
	for j := range dMean {
		dMean[j] = 1
		dSD[j] = 0
	}
	return s, 2
}

func (noFantasySurrogate) PredictJoint(xs [][]float64) (*surrogate.JointPrediction, error) {
	if len(xs) == 0 {
		return nil, surrogate.ErrEmptyBatch
	}
	return &surrogate.JointPrediction{
		Mean:    make([]float64, len(xs)),
		CovChol: mat.Identity(len(xs)),
	}, nil
}

func (noFantasySurrogate) Fantasize([]float64, float64) (surrogate.Surrogate, error) {
	return nil, errors.New("no conditioning update")
}

func (noFantasySurrogate) Lengthscales() []float64 { return []float64{1, 1} }

type noFantasyFactory struct{}

func (noFantasyFactory) Fit(context.Context, *State, int) (surrogate.Surrogate, error) {
	return noFantasySurrogate{}, nil
}

// TestAsyncFantasyFallback: with a surrogate that cannot fantasize,
// replacement proposals skip every busy point's fantasy, the fallback
// counter reflects it, and the counter survives checkpoint.
func TestAsyncFantasyFallback(t *testing.T) {
	e := asyncEngine(46)
	e.Factory = noFantasyFactory{}
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	res := driveAsyncToCompletion(t, e, at)
	if res.Cycles != e.MaxCycles {
		t.Fatalf("cycles = %d", res.Cycles)
	}
	if at.FantasyFallbacks() == 0 {
		t.Fatal("no fantasy fallbacks recorded for a no-fantasy surrogate")
	}
	cp, err := at.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.FantasyFallbacks != at.FantasyFallbacks() {
		t.Fatalf("checkpoint fallbacks %d != %d", cp.FantasyFallbacks, at.FantasyFallbacks())
	}
	e2 := asyncEngine(46)
	e2.Factory = noFantasyFactory{}
	at2, err := ResumeAskTell(e2, cp)
	if err != nil {
		t.Fatal(err)
	}
	if at2.FantasyFallbacks() != at.FantasyFallbacks() {
		t.Fatalf("resumed fallbacks %d != %d", at2.FantasyFallbacks(), at.FantasyFallbacks())
	}
}

// chainSurrogate records the busy points it has been conditioned on. Its
// Fantasize fails at the point fail and nowhere else.
type chainSurrogate struct {
	noFantasySurrogate
	fail []float64
	cond [][]float64
}

func (s *chainSurrogate) Fantasize(x []float64, _ float64) (surrogate.Surrogate, error) {
	if slices.Equal(x, s.fail) {
		return nil, errors.New("degenerate extension")
	}
	return &chainSurrogate{fail: s.fail, cond: append(slices.Clone(s.cond), x)}, nil
}

type chainFactory struct{ fail []float64 }

func (f chainFactory) Fit(context.Context, *State, int) (surrogate.Surrogate, error) {
	return &chainSurrogate{fail: f.fail}, nil
}

// chainPoint is the point chainStrategy proposes at a cycle.
func chainPoint(cycle int) []float64 { return []float64{-2 + 0.25*float64(cycle), 1} }

// chainStrategy proposes chainPoint(cycle) and records, per cycle, the
// busy points its model was conditioned on.
type chainStrategy struct{ cond map[int][][]float64 }

func (s *chainStrategy) Name() string { return "chain" }
func (s *chainStrategy) Reset()       {}
func (s *chainStrategy) Propose(_ context.Context, m surrogate.Surrogate, st *State, _ int, _ *rng.Stream) ([][]float64, error) {
	s.cond[st.Cycle] = m.(*chainSurrogate).cond
	return [][]float64{chainPoint(st.Cycle)}, nil
}
func (s *chainStrategy) Observe(*State, [][]float64, []float64) {}
func (s *chainStrategy) APParallelism(int) int                  { return 1 }

// TestAsyncFantasyFallbackSkipsOneLink: when one busy point's fantasy
// fails, the replacement proposal's model is still conditioned on every
// other busy point, in ask order, each such cycle counts once in
// FantasyFallbacks, and the count survives checkpoint and resume.
func TestAsyncFantasyFallbackSkipsOneLink(t *testing.T) {
	engine := func(s *chainStrategy) *Engine {
		e := asyncEngine(48)
		e.BatchSize = 4
		e.MaxCycles = 8
		e.Strategy = s
		e.Factory = chainFactory{fail: chainPoint(2)}
		return e
	}
	strat := &chainStrategy{cond: map[int][][]float64{}}
	e := engine(strat)
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for at.designTold < len(at.design) {
		b, err := at.Ask(ctx)
		if err != nil {
			t.Fatal(err)
		}
		y, cost := e.Problem.Evaluator.Eval(b.Points[0])
		if err := at.Tell(b.ID, []float64{y}, []time.Duration{cost}); err != nil {
			t.Fatal(err)
		}
	}
	// Four asks fill the slots: cycle c conditions on the points of
	// cycles 1…c−1, and the fantasy at cycle 2's point fails.
	wantCond := [][][]float64{
		nil,
		{chainPoint(1)},
		{chainPoint(1)},
		{chainPoint(1), chainPoint(3)},
	}
	wantFallbacks := []int{0, 0, 1, 2}
	for c := 1; c <= 4; c++ {
		b, err := at.Ask(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b.Cycle != c || !slices.Equal(b.Points[0], chainPoint(c)) {
			t.Fatalf("ask %d: cycle %d point %v", c, b.Cycle, b.Points[0])
		}
		if got, want := strat.cond[c], wantCond[c-1]; !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: model conditioned on %v, want %v", c, got, want)
		}
		if got := at.FantasyFallbacks(); got != wantFallbacks[c-1] {
			t.Fatalf("after cycle %d: %d fantasy fallbacks, want %d", c, got, wantFallbacks[c-1])
		}
	}

	cp, err := at.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.FantasyFallbacks != 2 {
		t.Fatalf("checkpoint fallbacks %d, want 2", cp.FantasyFallbacks)
	}
	e2 := engine(&chainStrategy{cond: map[int][][]float64{}})
	at2, err := ResumeAskTell(e2, cp)
	if err != nil {
		t.Fatal(err)
	}
	if at2.FantasyFallbacks() != 2 {
		t.Fatalf("resumed fallbacks %d, want 2", at2.FantasyFallbacks())
	}
	// Both runs finish alike: the count goes on from the checkpoint.
	res := driveAsyncToCompletion(t, e, at)
	res2 := driveAsyncToCompletion(t, e2, at2)
	if at2.FantasyFallbacks() != at.FantasyFallbacks() || !reflect.DeepEqual(res2.X, res.X) {
		t.Fatalf("resumed run: %d fallbacks, X %v; uninterrupted: %d, X %v",
			at2.FantasyFallbacks(), res2.X, at.FantasyFallbacks(), res.X)
	}
}

// TestAsyncDedupesAgainstBusy: replacement proposals must not re-issue a
// point that is already in flight — the dedupe pass nudges collisions with
// the busy set.
func TestAsyncDedupesAgainstBusy(t *testing.T) {
	e := asyncEngine(47)
	// A strategy that always proposes the same point forces collisions
	// with both the observed set and the busy set.
	e.Strategy = &constantStrategy{point: []float64{1.25, -0.75}}
	at, err := NewAskTell(e)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Drain the design synchronously.
	for {
		b, err := at.Ask(ctx)
		if err != nil {
			t.Fatal(err)
		}
		br, eerr := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, b.Points)
		if eerr != nil {
			t.Fatal(eerr)
		}
		if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
			t.Fatal(err)
		}
		if at.designTold == len(at.design) {
			break
		}
	}
	b1, err := at.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := at.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := b1.Points[0], b2.Points[0]
	if p1[0] == p2[0] && p1[1] == p2[1] {
		t.Fatalf("in-flight duplicate issued: %v twice", p1)
	}
}

type constantStrategy struct{ point []float64 }

func (s *constantStrategy) Name() string { return "random" }
func (s *constantStrategy) Reset()       {}
func (s *constantStrategy) Propose(_ context.Context, _ surrogate.Surrogate, _ *State, q int, _ *rng.Stream) ([][]float64, error) {
	out := make([][]float64, q)
	for i := range out {
		out[i] = append([]float64(nil), s.point...)
	}
	return out, nil
}
func (s *constantStrategy) Observe(*State, [][]float64, []float64) {}
func (s *constantStrategy) APParallelism(int) int                  { return 1 }
