package session

import (
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/session/snapshot"
	"repro/internal/strategy"
	"repro/internal/surrogate"
)

// detNow is a deterministic measured-time source (1ms per call), making
// whole Results — including History — comparable across runs.
func detNow() func() time.Time {
	t0 := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

func testEngine(t *testing.T, strat string) *core.Engine {
	t.Helper()
	s, err := strategy.ByName(strat)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Engine{
		Problem: &core.Problem{
			Name: "sphere", Lo: []float64{-3, -3}, Hi: []float64{3, 3}, Minimize: true,
			Evaluator: parallel.FixedCost(func(x []float64) float64 {
				return x[0]*x[0] + x[1]*x[1]
			}, 10*time.Second),
		},
		Strategy:       s,
		BatchSize:      2,
		InitSamples:    6,
		MaxCycles:      3,
		Budget:         time.Hour,
		OverheadFactor: 1,
		Model:          core.ModelConfig{Restarts: 1, MaxIter: 10, FitSubsetMax: 48},
		Pool:           &parallel.Pool{Overhead: parallel.LinearOverhead(100*time.Millisecond, 50*time.Millisecond)},
		Seed:           7,
	}
}

// evalMembers evaluates a batch member-by-member through the engine's
// evaluator, the way external workers would.
func evalMembers(e *core.Engine, b *core.Batch) []EvalResult {
	out := make([]EvalResult, len(b.Points))
	for i, x := range b.Points {
		y, cost := e.Problem.Evaluator.Eval(x)
		out[i] = EvalResult{BatchID: b.ID, Member: i, Y: y, CostNS: int64(cost)}
	}
	return out
}

// driveToDone completes the session sequentially, telling each batch's
// members one at a time in reverse order — exercising partial tells on
// every batch.
func driveToDone(t *testing.T, e *core.Engine, s *Session) *core.Result {
	t.Helper()
	ctx := context.Background()
	for {
		b, err := s.Ask(ctx)
		if errors.Is(err, ErrDone) {
			return s.Result()
		}
		if err != nil {
			t.Fatal(err)
		}
		results := evalMembers(e, b)
		for i := len(results) - 1; i >= 0; i-- {
			if err := s.Tell(ctx, []EvalResult{results[i]}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// driveRounds completes the session in Engine.Run's rounds: ask until
// the session is not ready, then tell each batch of the round, in ask
// order, its members one at a time in reverse order.
func driveRounds(t *testing.T, e *core.Engine, s *Session) *core.Result {
	t.Helper()
	ctx := context.Background()
	for {
		var round []*core.Batch
		for {
			b, err := s.Ask(ctx)
			if errors.Is(err, core.ErrNoBatchReady) {
				break
			}
			if errors.Is(err, ErrDone) {
				return s.Result()
			}
			if err != nil {
				t.Fatal(err)
			}
			round = append(round, b)
		}
		for _, b := range round {
			results := evalMembers(e, b)
			for i := len(results) - 1; i >= 0; i-- {
				if err := s.Tell(ctx, []EvalResult{results[i]}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestSessionCompletesLikeEngineRun: a session driven in Engine.Run's
// rounds, with partial tells, finishes with Engine.Run's trace in both
// modes.
func TestSessionCompletesLikeEngineRun(t *testing.T) {
	for _, mode := range []core.Mode{core.Synchronous, core.Asynchronous} {
		t.Run(mode.String(), func(t *testing.T) {
			engine := func() *core.Engine {
				e := testEngine(t, "KB-q-EGO")
				e.Mode = mode
				return e
			}
			ref, err := engine().Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			e := engine()
			s, err := New(Config{ID: "s1", Engine: e})
			if err != nil {
				t.Fatal(err)
			}
			got := driveRounds(t, e, s)
			if !reflect.DeepEqual(ref.X, got.X) || !reflect.DeepEqual(ref.Y, got.Y) {
				t.Fatal("session-driven trace diverged from Engine.Run")
			}
			st := s.Status()
			if !st.Done || st.Cycles != 3 || len(st.Pending) != 0 {
				t.Fatalf("final status %+v", st)
			}
		})
	}
}

// TestSessionKillAndResume is the subsystem's central guarantee: kill a
// session mid-cycle — after an ask, with only part of the batch told —
// resume from the newest snapshot on disk, finish, and the final Result
// (X, Y, incumbent, counters, full cycle records) is bit-identical to the
// never-interrupted reference. Run for a stateless strategy, the
// trust-region strategy and the partition-tree strategy.
func TestSessionKillAndResume(t *testing.T) {
	for _, strat := range []string{"KB-q-EGO", "TuRBO", "BSP-EGO"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			refEngine := testEngine(t, strat)
			refSess, err := New(Config{ID: "ref", Engine: refEngine, Now: detNow()})
			if err != nil {
				t.Fatal(err)
			}
			ref := driveToDone(t, refEngine, refSess)

			dir := filepath.Join(t.TempDir(), "snaps")
			store := &snapshot.Store{Dir: dir}
			e1 := testEngine(t, strat)
			s1, err := New(Config{ID: "run", Engine: e1, Store: store, Now: detNow()})
			if err != nil {
				t.Fatal(err)
			}

			// Drive through the design and one full cycle, then ask the
			// cycle-2 batch and tell only its first member before "dying".
			ctx := context.Background()
			tells := 0
			for tells < 4 {
				b, err := s1.Ask(ctx)
				if err != nil {
					t.Fatal(err)
				}
				results := evalMembers(e1, b)
				for i := len(results) - 1; i >= 0; i-- {
					if err := s1.Tell(ctx, []EvalResult{results[i]}); err != nil {
						t.Fatal(err)
					}
				}
				tells++
			}
			b, err := s1.Ask(ctx)
			if err != nil {
				t.Fatal(err)
			}
			partial := evalMembers(e1, b)[:1]
			if err := s1.Tell(ctx, partial); err != nil {
				t.Fatal(err)
			}
			// The process dies here: s1 is abandoned without cleanup.

			e2 := testEngine(t, strat)
			s2, err := Resume(Config{ID: "run", Engine: e2, Store: store, Now: detNow()})
			if err != nil {
				t.Fatal(err)
			}
			st := s2.Status()
			if len(st.Pending) != 1 || st.Pending[0].Received != 1 {
				t.Fatalf("resumed pending ledger %+v, want one batch with one received member", st.Pending)
			}
			// Tell the missing members of the in-flight batch, then finish.
			drainPending(t, e2, s2)
			got := driveToDone(t, e2, s2)

			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("kill-and-resume diverged from uninterrupted run:\nref %+v\ngot %+v", ref, got)
			}
		})
	}
}

// TestSessionResumeSurvivesCorruptNewestSnapshot: a torn write of the
// newest snapshot must not strand the session — resume falls back to the
// previous one, re-asks the lost batch and still converges to the
// identical result.
func TestSessionResumeSurvivesCorruptNewestSnapshot(t *testing.T) {
	refEngine := testEngine(t, "KB-q-EGO")
	refSess, err := New(Config{ID: "ref", Engine: refEngine, Now: detNow()})
	if err != nil {
		t.Fatal(err)
	}
	ref := driveToDone(t, refEngine, refSess)

	store := &snapshot.Store{Dir: t.TempDir(), Keep: 10}
	e1 := testEngine(t, "KB-q-EGO")
	s1, err := New(Config{ID: "run", Engine: e1, Store: store, Now: detNow()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		b, err := s1.Ask(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.Tell(ctx, evalMembers(e1, b)); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	corruptFile(t, paths[len(paths)-1])

	e2 := testEngine(t, "KB-q-EGO")
	s2, err := Resume(Config{ID: "run", Engine: e2, Store: store, Now: detNow()})
	if err != nil {
		t.Fatal(err)
	}
	// The fallback snapshot may predate the lost tell: the in-flight
	// batch is back in the ledger and must be re-evaluated first.
	drainPending(t, e2, s2)
	got := driveToDone(t, e2, s2)
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("resume from fallback snapshot diverged")
	}
}

// drainPending re-evaluates and tells every unreceived member of the
// session's in-flight batches — the post-resume recovery protocol.
func drainPending(t *testing.T, e *core.Engine, s *Session) {
	t.Helper()
	ctx := context.Background()
	for _, pw := range s.PendingWork() {
		var results []EvalResult
		for m, x := range pw.Batch.Points {
			if pw.Received[m] {
				continue
			}
			y, cost := e.Problem.Evaluator.Eval(x)
			results = append(results, EvalResult{BatchID: pw.Batch.ID, Member: m, Y: y, CostNS: int64(cost)})
		}
		if len(results) > 0 {
			if err := s.Tell(ctx, results); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSessionTellValidation(t *testing.T) {
	e := testEngine(t, "KB-q-EGO")
	s, err := New(Config{ID: "v", Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		name string
		res  []EvalResult
	}{
		{"unknown batch", []EvalResult{{BatchID: b.ID + 99, Member: 0}}},
		{"member out of range", []EvalResult{{BatchID: b.ID, Member: len(b.Points)}}},
		{"negative member", []EvalResult{{BatchID: b.ID, Member: -1}}},
		{"negative cost", []EvalResult{{BatchID: b.ID, Member: 0, CostNS: -1}}},
		{"duplicate in group", []EvalResult{{BatchID: b.ID, Member: 0}, {BatchID: b.ID, Member: 0}}},
	}
	for _, tc := range bad {
		if err := s.Tell(ctx, tc.res); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Validation failures must not have staged anything: member 0 is
	// still tellable exactly once.
	if err := s.Tell(ctx, []EvalResult{{BatchID: b.ID, Member: 0, Y: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Tell(ctx, []EvalResult{{BatchID: b.ID, Member: 0, Y: 1}}); err == nil {
		t.Error("duplicate across calls accepted")
	}
}

// TestSessionTellRejectsNonFinite: one NaN member in a group rejects the
// whole group with core.ErrNonFinite. Nothing is recorded — receipt
// counts, tell counters and snapshots stay as they were — and the same
// members are still tellable with finite values.
func TestSessionTellRejectsNonFinite(t *testing.T) {
	e := testEngine(t, "KB-q-EGO")
	s, err := New(Config{ID: "nan", Engine: e, Store: &snapshot.Store{Dir: t.TempDir()}, Now: detNow()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	results := evalMembers(e, b)
	before := s.Metrics()
	pending := s.PendingWork()

	bad := append([]EvalResult(nil), results...)
	bad[1].Y = math.NaN()
	if err := s.Tell(ctx, bad); !errors.Is(err, core.ErrNonFinite) {
		t.Fatalf("err = %v, want core.ErrNonFinite", err)
	}
	if after := s.Metrics(); after != before {
		t.Fatalf("rejected tell changed the metrics:\nbefore %+v\nafter  %+v", before, after)
	}
	if !reflect.DeepEqual(s.PendingWork(), pending) {
		t.Fatal("rejected tell changed the pending work")
	}
	if err := s.Tell(ctx, results); err != nil {
		t.Fatal(err)
	}
}

func TestSessionResumeRejectsWrongID(t *testing.T) {
	store := &snapshot.Store{Dir: t.TempDir()}
	e := testEngine(t, "KB-q-EGO")
	if _, err := New(Config{ID: "alpha", Engine: e, Store: store}); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(Config{ID: "beta", Engine: testEngine(t, "KB-q-EGO"), Store: store}); err == nil {
		t.Fatal("resume under a different id accepted")
	}
	if _, err := Resume(Config{ID: "alpha", Engine: testEngine(t, "KB-q-EGO")}); err == nil {
		t.Fatal("resume without a store accepted")
	}
}

// TestRestoreRefusesLedgerMissingPendingBatch: a frame whose partial
// ledger omits a batch the engine checkpoint holds pending must be
// refused, by Restore and by Resume alike. Accepted, the session would
// report nothing pending while the engine waits on the batch, and every
// tell for it would fail.
func TestRestoreRefusesLedgerMissingPendingBatch(t *testing.T) {
	e := testEngine(t, "KB-q-EGO")
	s, err := New(Config{ID: "gap", Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ask(context.Background()); err != nil {
		t.Fatal(err)
	}
	frame, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(Config{ID: "gap", Engine: testEngine(t, "KB-q-EGO")}, frame); err != nil {
		t.Fatalf("intact frame refused: %v", err)
	}
	var p payload
	if err := snapshot.Decode(frame, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Checkpoint.Pending) != 1 || len(p.Partials) != 1 {
		t.Fatalf("frame holds %d pending batches, %d ledger entries", len(p.Checkpoint.Pending), len(p.Partials))
	}
	p.Partials = nil
	gap, err := snapshot.Encode(&p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Restore(Config{ID: "gap", Engine: testEngine(t, "KB-q-EGO")}, gap)
	if err == nil || !strings.Contains(err.Error(), "partial ledger covers 0 of 1 pending batches") {
		t.Fatalf("restore of a ledger missing a pending batch: err = %v", err)
	}
	store := &snapshot.Store{Dir: t.TempDir()}
	if _, err := store.SaveEncoded(gap); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(Config{ID: "gap", Engine: testEngine(t, "KB-q-EGO"), Store: store}); err == nil {
		t.Fatal("resume of a ledger missing a pending batch accepted")
	}
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// nullStrategy proposes uniform batches straight from the acquisition
// stream and never reads the surrogate, so it can run against the
// nil-model stubFactory below.
type nullStrategy struct{}

func (nullStrategy) Name() string { return "null" }
func (nullStrategy) Reset()       {}
func (nullStrategy) Propose(_ context.Context, _ surrogate.Surrogate, st *core.State, q int, stream *rng.Stream) ([][]float64, error) {
	out := make([][]float64, q)
	for i := range out {
		out[i] = stream.UniformVec(st.Problem.Lo, st.Problem.Hi)
	}
	return out, nil
}
func (nullStrategy) Observe(*core.State, [][]float64, []float64) {}
func (nullStrategy) APParallelism(int) int                       { return 1 }

// stubFactory returns a nil surrogate until failFrom, then fails —
// driving the engine into its sticky failed state on demand.
type stubFactory struct{ failFrom int }

func (f stubFactory) Fit(_ context.Context, _ *core.State, cycle int) (surrogate.Surrogate, error) {
	if cycle >= f.failFrom {
		return nil, errors.New("synthetic fit failure")
	}
	return nil, nil
}

// TestSessionTellErrorKeepsLedgerConsistent: when the engine rejects a
// forward mid-Tell (here via its sticky failed state), the session's
// pending ledger must stay consistent — the undelivered batch remains
// pending exactly once and Status/PendingWork still work. It runs in
// asynchronous mode, the one mode that asks a second cycle while the
// first is out.
func TestSessionTellErrorKeepsLedgerConsistent(t *testing.T) {
	e := testEngine(t, "KB-q-EGO")
	e.Mode = core.Asynchronous
	e.Strategy = nullStrategy{}
	e.Factory = stubFactory{failFrom: 2}
	s, err := New(Config{ID: "ledger", Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Complete the six single-point design waves.
	for i := 0; i < e.InitSamples; i++ {
		b, err := s.Ask(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Tell(ctx, evalMembers(e, b)); err != nil {
			t.Fatal(err)
		}
	}
	// Cycle 1 succeeds; keep its batch pending.
	b1, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 2's fit fails, leaving the engine in its sticky failed state.
	if _, err := s.Ask(ctx); err == nil {
		t.Fatal("fit failure not surfaced by Ask")
	}
	// Forwarding b1 now errors inside the rebuild loop — the ledger must
	// come out the other side intact.
	if err := s.Tell(ctx, evalMembers(e, b1)); err == nil {
		t.Fatal("tell into failed engine succeeded")
	}
	st := s.Status()
	if len(st.Pending) != 1 || st.Pending[0].BatchID != b1.ID || st.Pending[0].Received != len(b1.Points) {
		t.Fatalf("pending ledger after failed forward: %+v", st.Pending)
	}
	pws := s.PendingWork()
	if len(pws) != 1 || pws[0].Batch.ID != b1.ID {
		t.Fatalf("pending work after failed forward: %+v", pws)
	}
}

// TestSessionResultConcurrentEncode pins Result's deep-copy contract: a
// returned Result may be serialized after the session lock is released,
// concurrently with tells mutating the live run (the server's GET-result
// versus POST-tell path; the race detector is the assertion). It also
// checks the copies really are deep — mutating one leaks nowhere.
func TestSessionResultConcurrentEncode(t *testing.T) {
	e := testEngine(t, "KB-q-EGO")
	s, err := New(Config{ID: "enc", Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	//lint:ignore godiscipline test reader goroutine racing the drive loop, not an evaluation path
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Result().WriteJSON(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	driveToDone(t, e, s)
	close(stop)
	wg.Wait()

	a, b := s.Result(), s.Result()
	if len(a.X) == 0 || len(a.Y) == 0 || len(a.History) == 0 || a.BestX == nil {
		t.Fatalf("expected a populated final result, got %+v", a)
	}
	a.X[0][0], a.Y[0], a.BestX[0] = 42, 42, 42
	a.History[0].Evals = -1
	if !reflect.DeepEqual(b, s.Result()) {
		t.Fatal("mutating one Result copy leaked into the session")
	}
}
