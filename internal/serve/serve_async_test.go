package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/session"
)

// fakeNow returns a deterministic measured-time source: each call
// advances 1ms. Only the deltas between consecutive calls enter the
// virtual clock, so two servers each given a fresh fakeNow charge
// identical overheads regardless of how many calls came before. The
// mutex exists for the race detector: handler goroutines synchronize
// through the HTTP connection, which the detector cannot see.
func fakeNow() func() time.Time {
	var mu sync.Mutex
	t0 := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

// asyncSpec is a small asynchronous benchmark workload.
func asyncSpec(id string) SessionSpec {
	spec := testSpecs()[3] // levy, KB-q-EGO
	spec.ID = id
	spec.Mode = "async"
	return spec
}

// driveAsyncHTTP drives an asynchronous session over the wire with the
// same deterministic schedule as the session-layer driver: fill every
// in-flight slot via Ask, and when the server reports not-ready evaluate
// and tell the NEWEST pending member (done comes only with nothing
// pending). Telling newest-first is a pure function of server state, so a
// run killed at any op boundary and resumed continues identically.
// stopAfter < 0 runs to completion; otherwise the driver returns nil
// after that many ask/tell ops — the injected crash point.
func driveAsyncHTTP(ctx context.Context, t *testing.T, c *Client, id string, ev parallel.Evaluator, stopAfter int) *core.Result {
	t.Helper()
	ops := 0
	for {
		if ops == stopAfter {
			return nil
		}
		b, done, err := c.Ask(ctx, id)
		if err == nil && !done && b != nil {
			ops++ // slot filled; the server's ledger tracks it
			continue
		}
		if err != nil && !errors.Is(err, ErrNotReady) {
			t.Fatalf("%s: ask: %v", id, err)
		}
		pws, perr := c.PendingWork(ctx, id)
		if perr != nil {
			t.Fatalf("%s: pending: %v", id, perr)
		}
		if len(pws) == 0 {
			if done {
				res, rerr := c.Result(ctx, id)
				if rerr != nil {
					t.Fatalf("%s: result: %v", id, rerr)
				}
				return res
			}
			t.Fatalf("%s: not ready with an empty pending ledger", id)
		}
		pw := pws[len(pws)-1] // newest batch
		m := -1
		for i := range pw.Batch.Points {
			if !pw.Received[i] {
				m = i
			}
		}
		if m < 0 {
			t.Fatalf("%s: fully-received batch still pending", id)
		}
		y, cost := ev.Eval(pw.Batch.Points[m])
		if _, err := c.Tell(ctx, id, []session.EvalResult{{
			BatchID: pw.Batch.ID, Member: m, Y: y, CostNS: int64(cost),
		}}); err != nil {
			t.Fatalf("%s: tell: %v", id, err)
		}
		ops++
	}
}

// TestServerAsyncKillAndResume is the HTTP layer of the async bit-identity
// chain: an asynchronous session driven over the wire, killed mid-run with
// fantasized points in flight, resumed on a fresh server over the same
// snapshot root, and driven to completion must produce a result AND usage
// counters identical to an uninterrupted run under the same injected
// clock.
func TestServerAsyncKillAndResume(t *testing.T) {
	spec := asyncSpec("async-run")
	ctx := context.Background()
	eng, err := spec.Engine()
	if err != nil {
		t.Fatal(err)
	}
	ev := eng.Problem.Evaluator

	// Uninterrupted reference, HTTP-driven with its own clock and root.
	refSrv := &Server{SnapRoot: filepath.Join(t.TempDir(), "ref"), Now: fakeNow()}
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	refC := &Client{BaseURL: refTS.URL}
	if _, err := refC.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	ref := driveAsyncHTTP(ctx, t, refC, spec.ID, ev, -1)
	refMetrics, err := refC.Metrics(ctx, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if refMetrics.Mode != "async" || refMetrics.Asks != refMetrics.Tells {
		t.Fatalf("reference metrics %+v", refMetrics)
	}

	for _, stopAfter := range []int{5, 9, 14} {
		root := filepath.Join(t.TempDir(), "snaps")
		srv1 := &Server{SnapRoot: root, Now: fakeNow()}
		ts1 := httptest.NewServer(srv1.Handler())
		c1 := &Client{BaseURL: ts1.URL}
		if _, err := c1.Create(ctx, spec); err != nil {
			t.Fatal(err)
		}
		if res := driveAsyncHTTP(ctx, t, c1, spec.ID, ev, stopAfter); res != nil {
			t.Fatalf("stop %d: run finished before the crash point", stopAfter)
		}
		ts1.Close() // the crash

		srv2 := &Server{SnapRoot: root, Now: fakeNow()}
		ts2 := httptest.NewServer(srv2.Handler())
		c2 := &Client{BaseURL: ts2.URL}
		if _, err := c2.Resume(ctx, spec.ID); err != nil {
			t.Fatalf("stop %d: resume: %v", stopAfter, err)
		}
		got := driveAsyncHTTP(ctx, t, c2, spec.ID, ev, -1)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("stop %d: resumed result diverged from uninterrupted run", stopAfter)
		}
		gotMetrics, err := c2.Metrics(ctx, spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotMetrics, refMetrics) {
			t.Errorf("stop %d: metrics %+v, want %+v", stopAfter, gotMetrics, refMetrics)
		}
		ts2.Close()
	}
}

// TestServerAskWaitLongPoll: with every in-flight slot occupied, a
// long-poll ask parks on the server until a tell frees a slot, then
// returns the replacement batch — no client-side ErrNotReady spinning. A
// short wait that expires keeps the plain-ask 409 contract, and a
// malformed wait is a 400.
func TestServerAskWaitLongPoll(t *testing.T) {
	spec := asyncSpec("longpoll")
	srv := &Server{}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	if _, err := c.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}

	// Fill both in-flight slots.
	b1, _, err := c.Ask(ctx, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Ask(ctx, spec.ID); err != nil {
		t.Fatal(err)
	}

	// Expired wait behaves like a plain not-ready ask.
	if _, _, err := c.AskWait(ctx, spec.ID, 20*time.Millisecond); !errors.Is(err, ErrNotReady) {
		t.Fatalf("expired long-poll: %v, want ErrNotReady", err)
	}

	type askOut struct {
		b    *core.Batch
		done bool
		err  error
	}
	out := make(chan askOut, 1)
	//lint:ignore godiscipline test long-poll waiter racing a tell, not an evaluation path
	go func() {
		b, done, err := c.AskWait(ctx, spec.ID, time.Minute)
		out <- askOut{b, done, err}
	}()
	// Give the poller a beat to park server-side; if the tell still wins
	// the race the contract holds either way (the first ask attempt
	// happens after the slot freed).
	time.Sleep(50 * time.Millisecond)

	eng, err := spec.Engine()
	if err != nil {
		t.Fatal(err)
	}
	y, cost := eng.Problem.Evaluator.Eval(b1.Points[0])
	if _, err := c.Tell(ctx, spec.ID, []session.EvalResult{{
		BatchID: b1.ID, Member: 0, Y: y, CostNS: int64(cost),
	}}); err != nil {
		t.Fatal(err)
	}

	select {
	case got := <-out:
		if got.err != nil || got.done || got.b == nil {
			t.Fatalf("woken long-poll: batch=%v done=%v err=%v", got.b, got.done, got.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never woke after the tell freed a slot")
	}

	resp, err := http.Get(ts.URL + "/v1/sessions/" + spec.ID + "/ask?wait=bogus")
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errcheck response body close failures carry no information in a test
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus wait: status %d, want 400", resp.StatusCode)
	}
}

// TestClientAskWaitClamps pins the client-side long-poll hygiene: a
// negative wait degrades to a plain ask (the server would 400 a raw
// "wait=-5s"), and a wait longer than an injected HTTPClient.Timeout is
// clamped so the expired poll comes back as a clean ErrNotReady from
// the server rather than a transport error killing it mid-wait.
func TestClientAskWaitClamps(t *testing.T) {
	spec := asyncSpec("clamp")
	srv := &Server{}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	if _, err := c.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// Fill both in-flight slots so every ask is a genuine wait.
	if _, _, err := c.Ask(ctx, spec.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Ask(ctx, spec.ID); err != nil {
		t.Fatal(err)
	}

	if _, _, err := c.AskWait(ctx, spec.ID, -5*time.Second); !errors.Is(err, ErrNotReady) {
		t.Fatalf("negative wait: %v, want ErrNotReady", err)
	}

	short := &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Timeout: askWaitMargin + 300*time.Millisecond}}
	start := time.Now()
	_, _, err := short.AskWait(ctx, spec.ID, time.Minute)
	if !errors.Is(err, ErrNotReady) {
		t.Fatalf("clamped wait: %v, want ErrNotReady", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Minute/2 {
		t.Fatalf("clamped wait still polled %v", elapsed)
	}
}

// TestServerMetricsEndpoints pins the per-session counters and the
// whole-server rollup over the wire.
func TestServerMetricsEndpoints(t *testing.T) {
	srv := &Server{}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	spec := asyncSpec("m-async")
	if _, err := c.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != spec.ID || m.Mode != "async" || m.Asks != 0 || m.Tells != 0 {
		t.Fatalf("fresh session metrics %+v", m)
	}

	// Two asks fill the slots; one tell frees one.
	b1, _, err := c.Ask(ctx, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Ask(ctx, spec.ID); err != nil {
		t.Fatal(err)
	}
	eng, err := spec.Engine()
	if err != nil {
		t.Fatal(err)
	}
	y, cost := eng.Problem.Evaluator.Eval(b1.Points[0])
	if _, err := c.Tell(ctx, spec.ID, []session.EvalResult{{
		BatchID: b1.ID, Member: 0, Y: y, CostNS: int64(cost),
	}}); err != nil {
		t.Fatal(err)
	}
	m, err = c.Metrics(ctx, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.Asks != 2 || m.Tells != 1 || m.Pending != 1 || m.Done {
		t.Fatalf("driven session metrics %+v", m)
	}

	sync := testSpecs()[3]
	sync.ID = "a-sync" // sorts before m-async
	if _, err := c.Create(ctx, sync); err != nil {
		t.Fatal(err)
	}
	sm, err := c.ServerMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Sessions != 2 || len(sm.PerSession) != 2 {
		t.Fatalf("server metrics %+v", sm)
	}
	if sm.PerSession[0].ID != "a-sync" || sm.PerSession[1].ID != "m-async" {
		t.Fatalf("per-session rollup not sorted by ID: %+v", sm.PerSession)
	}
	var asks, tells int64
	for _, pm := range sm.PerSession {
		asks += pm.Asks
		tells += pm.Tells
	}
	if sm.Asks != asks || sm.Tells != tells || sm.Asks != 2 || sm.Tells != 1 {
		t.Fatalf("rollup totals %+v", sm)
	}
	if sm.DoneSessions != 0 {
		t.Fatalf("done sessions %d, want 0", sm.DoneSessions)
	}
}

// TestServerDoneEviction: with MaxDoneResident set, completed persisted
// sessions beyond the bound are snapshotted one final time and unloaded,
// oldest-completed first — and remain resumable. Store-less sessions are
// never auto-evicted, and DELETE unloads explicitly.
func TestServerDoneEviction(t *testing.T) {
	root := filepath.Join(t.TempDir(), "snaps")
	srv := &Server{SnapRoot: root, MaxDoneResident: 1}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	a := testSpecs()[3]
	a.ID = "gc-a"
	b := testSpecs()[3]
	b.ID = "gc-b"
	b.Seed = 13
	if _, err := c.Create(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(ctx, b); err != nil {
		t.Fatal(err)
	}

	if got := driveOverHTTP(ctx, t, c, a); got == nil {
		t.Fatal("gc-a did not finish")
	}
	ids, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("one done session within the bound, list = %v", ids)
	}

	// gc-b completing pushes the done count past the bound: gc-a (the
	// oldest-completed) must be unloaded, gc-b must survive so its result
	// can still be fetched.
	if got := driveOverHTTP(ctx, t, c, b); got == nil {
		t.Fatal("gc-b did not finish")
	}
	ids, err = c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "gc-b" {
		t.Fatalf("after second completion, list = %v, want [gc-b]", ids)
	}
	if _, err := c.Status(ctx, "gc-a"); err == nil {
		t.Fatal("evicted session still answers status")
	}

	// The evicted session resumes from its final snapshot, complete.
	st, err := c.Resume(ctx, "gc-a")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || len(st.Pending) != 0 {
		t.Fatalf("resumed evicted session status %+v", st)
	}

	// Explicit DELETE unloads on demand; unknown IDs are a 404-shaped error.
	if err := c.Evict(ctx, "gc-b"); err != nil {
		t.Fatal(err)
	}
	ids, err = c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "gc-a" {
		t.Fatalf("after delete, list = %v, want [gc-a]", ids)
	}
	if err := c.Evict(ctx, "ghost"); !errorContains(err, "unknown session") {
		t.Fatalf("evicting unknown session: %v", err)
	}

	// Store-less sessions must never be auto-evicted: unloading them would
	// destroy the only copy of their results.
	memSrv := &Server{MaxDoneResident: 1}
	memTS := httptest.NewServer(memSrv.Handler())
	defer memTS.Close()
	mc := &Client{BaseURL: memTS.URL}
	for _, spec := range []SessionSpec{a, b} {
		if _, err := mc.Create(ctx, spec); err != nil {
			t.Fatal(err)
		}
		if got := driveOverHTTP(ctx, t, mc, spec); got == nil {
			t.Fatalf("%s did not finish in memory", spec.ID)
		}
	}
	ids, err = mc.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("store-less sessions were evicted: %v", ids)
	}
}

// TestServerModeValidation: the wire spec rejects unknown protocol modes
// at create time, and accepts the two spellings of synchronous.
func TestServerModeValidation(t *testing.T) {
	srv := &Server{}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	bad := testSpecs()[3]
	bad.ID = "bad-mode"
	bad.Mode = "chaotic"
	if _, err := c.Create(ctx, bad); !errorContains(err, "unknown mode") {
		t.Fatalf("bogus mode: %v", err)
	}
	for i, mode := range []string{"", "sync", "async"} {
		spec := testSpecs()[3]
		spec.ID = "mode-" + mode + "-ok"
		if i == 0 {
			spec.ID = "mode-default-ok"
		}
		spec.Mode = mode
		if _, err := c.Create(ctx, spec); err != nil {
			t.Fatalf("mode %q rejected: %v", mode, err)
		}
	}
}
