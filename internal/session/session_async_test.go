package session

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/session/snapshot"
)

func asyncTestEngine(t *testing.T, strat string) *core.Engine {
	t.Helper()
	e := testEngine(t, strat)
	e.Mode = core.Asynchronous
	return e
}

// driveAsyncSession drives the deterministic LIFO schedule through the
// session API: fill every free in-flight slot, then evaluate and tell the
// newest pending member. stopAfter > 0 stops after that many operations
// (successful asks + engine-completing tells); stopAfter < 0 runs to
// completion.
func driveAsyncSession(t *testing.T, e *core.Engine, s *Session, stopAfter int) (*core.Result, bool) {
	t.Helper()
	ctx := context.Background()
	ops := 0
	boundary := func() bool { ops++; return stopAfter >= 0 && ops == stopAfter }
	for {
		b, err := s.Ask(ctx)
		switch {
		case err == nil:
			_ = b
			if boundary() {
				return nil, false
			}
			continue
		case errors.Is(err, ErrDone), errors.Is(err, core.ErrNoBatchReady):
			// ErrDone comes only with nothing pending, so the ledger
			// check below ends the drive.
		default:
			t.Fatal(err)
		}
		pws := s.PendingWork()
		if len(pws) == 0 {
			if !s.Done() {
				t.Fatal("no batch ready and nothing pending")
			}
			return s.Result(), true
		}
		newest := pws[len(pws)-1]
		var results []EvalResult
		for m, x := range newest.Batch.Points {
			if newest.Received[m] {
				continue
			}
			y, cost := e.Problem.Evaluator.Eval(x)
			results = append(results, EvalResult{BatchID: newest.Batch.ID, Member: m, Y: y, CostNS: int64(cost)})
		}
		if err := s.Tell(ctx, results); err != nil {
			t.Fatal(err)
		}
		if boundary() {
			return nil, false
		}
	}
}

// TestSessionAsyncKillAndResume is the session-layer async determinism
// guarantee (re-run under -race by check.sh): an asynchronous session
// killed mid-flight — fantasized points outstanding, usage counters
// nonzero — resumes from the newest snapshot and finishes with a Result
// AND final Metrics bit-identical to the uninterrupted reference.
func TestSessionAsyncKillAndResume(t *testing.T) {
	refEngine := asyncTestEngine(t, "KB-q-EGO")
	refStore := &snapshot.Store{Dir: filepath.Join(t.TempDir(), "ref")}
	refSess, err := New(Config{ID: "run", Engine: refEngine, Store: refStore, Now: detNow()})
	if err != nil {
		t.Fatal(err)
	}
	ref, done := driveAsyncSession(t, refEngine, refSess, -1)
	if !done {
		t.Fatal("reference stopped early")
	}
	refMetrics := refSess.Metrics()
	if refMetrics.Mode != "async" {
		t.Fatalf("metrics mode = %q", refMetrics.Mode)
	}

	// Ops: 6 design asks + 6 design tells + 3 cycle asks + 3 cycle tells.
	// 13 and 14 are the first cycle asks (one and two points mid-flight).
	for _, k := range []int{13, 14, 16} {
		dir := filepath.Join(t.TempDir(), "snaps")
		store := &snapshot.Store{Dir: dir}
		e1 := asyncTestEngine(t, "KB-q-EGO")
		s1, err := New(Config{ID: "run", Engine: e1, Store: store, Now: detNow()})
		if err != nil {
			t.Fatal(err)
		}
		if _, done := driveAsyncSession(t, e1, s1, k); done {
			t.Fatalf("boundary %d: run completed before kill", k)
		}
		// The process dies here: s1 is abandoned without cleanup.

		e2 := asyncTestEngine(t, "KB-q-EGO")
		s2, err := Resume(Config{ID: "run", Engine: e2, Store: store, Now: detNow()})
		if err != nil {
			t.Fatal(err)
		}
		got, done := driveAsyncSession(t, e2, s2, -1)
		if !done {
			t.Fatal("resumed run stopped early")
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("async session resume at op %d diverged:\nref %+v\ngot %+v", k, ref, got)
		}
		gotMetrics := s2.Metrics()
		if !reflect.DeepEqual(refMetrics, gotMetrics) {
			t.Fatalf("resumed metrics at op %d diverged:\nref %+v\ngot %+v", k, refMetrics, gotMetrics)
		}
	}
}

// TestSessionAsyncModeRejectsSyncSnapshot: an async session snapshot must
// not resume under a synchronous engine — the core mode identity check
// surfaces through Resume.
func TestSessionAsyncModeRejectsSyncSnapshot(t *testing.T) {
	store := &snapshot.Store{Dir: t.TempDir()}
	if _, err := New(Config{ID: "m", Engine: asyncTestEngine(t, "KB-q-EGO"), Store: store}); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(Config{ID: "m", Engine: testEngine(t, "KB-q-EGO"), Store: store}); err == nil {
		t.Fatal("async snapshot resumed under a synchronous engine")
	}
}

// TestSessionAwaitAskWakesOnTell: a long-poll waiter blocked on full
// in-flight slots must wake and receive a batch the moment another
// worker's tell frees a slot — no timeout-polling.
func TestSessionAwaitAskWakesOnTell(t *testing.T) {
	e := asyncTestEngine(t, "KB-q-EGO")
	s, err := New(Config{ID: "wake", Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var open []*core.Batch
	for i := 0; i < e.BatchSize; i++ {
		b, err := s.Ask(ctx)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, b)
	}
	if _, err := s.Ask(ctx); !errors.Is(err, core.ErrNoBatchReady) {
		t.Fatalf("slots full: err = %v", err)
	}

	type askResult struct {
		b   *core.Batch
		err error
	}
	woke := make(chan askResult, 1)
	//lint:ignore godiscipline test long-poll waiter racing a tell, not an evaluation path
	go func() {
		b, err := s.AwaitAsk(ctx, time.Minute)
		woke <- askResult{b, err}
	}()

	// Telling one member frees a slot; the waiter must return with the
	// replacement batch well before its one-minute budget.
	if err := s.Tell(ctx, evalMembers(e, open[0])); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-woke:
		if r.err != nil {
			t.Fatalf("awakened waiter: %v", r.err)
		}
		if len(r.b.Points) != 1 {
			t.Fatalf("awakened waiter got %d points", len(r.b.Points))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AwaitAsk did not wake on tell")
	}
}

// TestSessionAwaitAskTimesOut: with slots full and nobody telling, the
// bounded wait expires into ErrNoBatchReady (the plain-Ask contract), and
// a cancelled context returns immediately with the context error.
func TestSessionAwaitAskTimesOut(t *testing.T) {
	e := asyncTestEngine(t, "KB-q-EGO")
	s, err := New(Config{ID: "timeout", Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < e.BatchSize; i++ {
		if _, err := s.Ask(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.AwaitAsk(ctx, 10*time.Millisecond); !errors.Is(err, core.ErrNoBatchReady) {
		t.Fatalf("timed-out wait: err = %v, want ErrNoBatchReady", err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.AwaitAsk(cctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait: err = %v, want context.Canceled", err)
	}
}

// TestSessionAsyncWorkerPoolDrains is the goroutine-leak check on the
// async drain path: a pool of AwaitAsk-driven workers shares one session,
// every worker terminates at ErrDone (ForEach returning IS the join), the
// run completes with coherent counters, and the goroutine count returns
// to its baseline.
func TestSessionAsyncWorkerPoolDrains(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := asyncTestEngine(t, "KB-q-EGO")
	s, err := New(Config{ID: "pool", Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	err = parallel.ForEach(context.Background(), workers, workers, func(int) {
		ctx := context.Background()
		for {
			b, err := s.AwaitAsk(ctx, 5*time.Second)
			if errors.Is(err, ErrDone) {
				return
			}
			if errors.Is(err, core.ErrNoBatchReady) {
				continue // another worker holds the slots; keep polling
			}
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.Tell(ctx, evalMembers(e, b)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("worker pool exited with the run incomplete")
	}
	res := s.Result()
	if res.Cycles != e.MaxCycles || res.Evals != res.InitEvals+res.Cycles {
		t.Fatalf("concurrent drain counters: %+v", res)
	}
	m := s.Metrics()
	if m.Pending != 0 || m.PendingMembers != 0 || !m.Done {
		t.Fatalf("final metrics %+v", m)
	}
	if m.Asks != int64(res.Evals) || m.Tells != int64(res.Evals) {
		t.Fatalf("ask/tell counters %+v for %d evals", m, res.Evals)
	}

	// All waiters joined above; any stragglers would show up here.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestSessionMetricsPersist: usage counters ride the snapshot payload —
// a resumed session continues counting where the killed one stopped.
func TestSessionMetricsPersist(t *testing.T) {
	store := &snapshot.Store{Dir: t.TempDir()}
	e1 := asyncTestEngine(t, "KB-q-EGO")
	s1, err := New(Config{ID: "counters", Engine: e1, Store: store, Now: detNow()})
	if err != nil {
		t.Fatal(err)
	}
	if _, done := driveAsyncSession(t, e1, s1, 5); done {
		t.Fatal("run finished too early")
	}
	before := s1.Metrics()
	if before.Asks == 0 || before.Tells == 0 || before.Snapshots == 0 || before.SnapshotBytes == 0 {
		t.Fatalf("counters not accumulating: %+v", before)
	}

	e2 := asyncTestEngine(t, "KB-q-EGO")
	s2, err := Resume(Config{ID: "counters", Engine: e2, Store: store, Now: detNow()})
	if err != nil {
		t.Fatal(err)
	}
	after := s2.Metrics()
	if after.Asks != before.Asks || after.Tells != before.Tells ||
		after.Snapshots != before.Snapshots || after.SnapshotBytes != before.SnapshotBytes {
		t.Fatalf("counters did not survive resume:\nbefore %+v\nafter %+v", before, after)
	}
}

// TestSessionInFlightMembers: the pending-work view of a half-told batch
// carries the batch's points and its per-member receipt mask.
func TestSessionInFlightMembers(t *testing.T) {
	e := testEngine(t, "KB-q-EGO") // synchronous: 2-point batches
	s, err := New(Config{ID: "members", Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := s.Ask(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Tell(ctx, evalMembers(e, b)[:1]); err != nil {
		t.Fatal(err)
	}
	pending := s.PendingWork()
	if len(pending) != 1 || pending[0].Batch.ID != b.ID {
		t.Fatalf("pending work = %+v, want batch %d alone", pending, b.ID)
	}
	if !reflect.DeepEqual(pending[0].Batch.Points, b.Points) {
		t.Fatalf("pending points %v != %v", pending[0].Batch.Points, b.Points)
	}
	if want := []bool{true, false}; !reflect.DeepEqual(pending[0].Received, want) {
		t.Fatalf("receipt mask = %v, want %v", pending[0].Received, want)
	}
}
