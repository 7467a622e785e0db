package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/session"
	"repro/internal/session/snapshot"
)

// testSpecs are four concurrent workloads: the paper's UPHES simulator
// plus three synthetic benchmarks, all sized to finish in seconds.
func testSpecs() []SessionSpec {
	model := core.ModelConfig{Restarts: 1, MaxIter: 10, FitSubsetMax: 48}
	base := SessionSpec{
		Strategy:       "KB-q-EGO",
		BatchSize:      2,
		InitSamples:    6,
		MaxCycles:      2,
		BudgetNS:       int64(time.Hour),
		OverheadFactor: 1,
		Model:          model,
		Seed:           11,
	}
	uphesSpec := base
	uphesSpec.ID = "uphes-run"
	uphesSpec.Problem = ProblemSpec{Kind: "uphes"}
	uphesSpec.InitSamples = 8

	rast := base
	rast.ID = "rastrigin-run"
	rast.Strategy = "TuRBO"
	rast.Problem = ProblemSpec{Kind: "benchmark", Name: "rastrigin", Dim: 2}

	ack := base
	ack.ID = "ackley-run"
	ack.Strategy = "BSP-EGO"
	ack.Problem = ProblemSpec{Kind: "benchmark", Name: "ackley", Dim: 2}

	levy := base
	levy.ID = "levy-run"
	levy.Problem = ProblemSpec{Kind: "benchmark", Name: "levy", Dim: 2}
	levy.Seed = 12

	return []SessionSpec{uphesSpec, rast, ack, levy}
}

// referenceResult runs the spec's engine in-process, closed-loop.
func referenceResult(t *testing.T, spec SessionSpec) *core.Result {
	t.Helper()
	eng, err := spec.Engine()
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// driveOverHTTP runs one session to completion through the client:
// members are evaluated by a bounded worker pool and told back
// individually and concurrently, the way remote workers would.
func driveOverHTTP(ctx context.Context, t *testing.T, c *Client, spec SessionSpec) *core.Result {
	eng, err := spec.Engine()
	if err != nil {
		t.Errorf("%s: %v", spec.ID, err)
		return nil
	}
	ev := eng.Problem.Evaluator
	for {
		b, done, err := c.Ask(ctx, spec.ID)
		if err != nil {
			t.Errorf("%s: ask: %v", spec.ID, err)
			return nil
		}
		if done {
			res, err := c.Result(ctx, spec.ID)
			if err != nil {
				t.Errorf("%s: result: %v", spec.ID, err)
				return nil
			}
			return res
		}
		if err := tellBatch(ctx, c, spec.ID, ev, b); err != nil {
			t.Errorf("%s: %v", spec.ID, err)
			return nil
		}
	}
}

// tellBatch evaluates every member of b with a 2-worker pool and tells
// each result in its own HTTP request, concurrently.
func tellBatch(ctx context.Context, c *Client, id string, ev parallel.Evaluator, b *core.Batch) error {
	errs := make([]error, len(b.Points))
	ferr := parallel.ForEach(ctx, 2, len(b.Points), func(m int) {
		y, cost := ev.Eval(b.Points[m])
		_, err := c.Tell(ctx, id, []session.EvalResult{{
			BatchID: b.ID, Member: m, Y: y, CostNS: int64(cost),
		}})
		errs[m] = err
	})
	if ferr != nil {
		return ferr
	}
	return errors.Join(errs...)
}

// assertMatchesReference compares the HTTP-driven run to the in-process
// closed loop on every deterministic field: the full evaluation trace,
// the incumbent and the counters must be identical (trace floats crossed
// a JSON round trip, which Go guarantees is exact). Virtual time is only
// checked loosely: it folds in measured wall-clock fit/acquisition time,
// which legitimately varies between runs — the simulated evaluation time
// (10 s per cycle here) must dominate and agree, the sub-ms algorithm
// time may not. Bit-exact virtual-clock replay is pinned at the session
// layer, where tests inject a deterministic clock.
func assertMatchesReference(t *testing.T, id string, ref, got *core.Result) {
	t.Helper()
	if got == nil {
		return // driveOverHTTP already reported the failure
	}
	if !reflect.DeepEqual(ref.X, got.X) || !reflect.DeepEqual(ref.Y, got.Y) {
		t.Errorf("%s: evaluation trace diverged from closed-loop run", id)
	}
	if !reflect.DeepEqual(ref.BestX, got.BestX) {
		t.Errorf("%s: best point %v, want %v", id, got.BestX, ref.BestX)
	}
	//lint:ignore floatcmp incumbents must match exactly, both traces are bit-deterministic
	if got.BestY != ref.BestY {
		t.Errorf("%s: best value %v, want %v", id, got.BestY, ref.BestY)
	}
	if got.Cycles != ref.Cycles || got.Evals != ref.Evals || got.InitEvals != ref.InitEvals {
		t.Errorf("%s: counters (%d,%d,%d), want (%d,%d,%d)", id,
			got.Cycles, got.Evals, got.InitEvals, ref.Cycles, ref.Evals, ref.InitEvals)
	}
	if d := got.Virtual - ref.Virtual; math.Abs(d.Seconds()) > 0.5 {
		t.Errorf("%s: virtual time %v, want %v", id, got.Virtual, ref.Virtual)
	}
	if len(got.History) != len(ref.History) {
		t.Fatalf("%s: %d cycle records, want %d", id, len(got.History), len(ref.History))
	}
	for i, h := range got.History {
		r := ref.History[i]
		bad := h.Cycle != r.Cycle || h.Evals != r.Evals || h.Fallback != r.Fallback
		//lint:ignore floatcmp per-cycle incumbents must match exactly
		bad = bad || h.BestY != r.BestY
		bad = bad || math.Abs((h.Virtual-r.Virtual).Seconds()) > 0.5
		if bad {
			t.Errorf("%s: cycle record %d = %+v, want %+v", id, i, h, r)
		}
	}
}

// TestServerConcurrentSessions drives four sessions — UPHES plus three
// benchmarks, three different strategies — concurrently over loopback
// HTTP, each with its own concurrent worker pool, and requires every
// final result to match the in-process closed-loop run.
func TestServerConcurrentSessions(t *testing.T) {
	specs := testSpecs()
	refs := make([]*core.Result, len(specs))
	for i, spec := range specs {
		refs[i] = referenceResult(t, spec)
	}

	srv := &Server{SnapRoot: filepath.Join(t.TempDir(), "snaps")}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}

	ctx := context.Background()
	got := make([]*core.Result, len(specs))
	if err := parallel.ForEach(ctx, len(specs), len(specs), func(i int) {
		if _, err := c.Create(ctx, specs[i]); err != nil {
			t.Errorf("%s: create: %v", specs[i].ID, err)
			return
		}
		got[i] = driveOverHTTP(ctx, t, c, specs[i])
	}); err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		assertMatchesReference(t, spec.ID, refs[i], got[i])
	}

	ids, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(specs) {
		t.Fatalf("listed %d sessions, want %d: %v", len(ids), len(specs), ids)
	}
	st, err := c.Status(ctx, "uphes-run")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Problem != "uphes" || len(st.Pending) != 0 {
		t.Fatalf("uphes status %+v", st)
	}
	snaps, err := c.Snapshots(ctx, "uphes-run")
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots persisted for uphes-run")
	}
}

// TestServerKillAndResume simulates a server crash: drive a session
// partway (with a partially-told batch in flight), discard the Server,
// bring up a fresh one over the same snapshot root, resume over HTTP,
// drain the pending work and finish. The result must match the
// uninterrupted closed loop.
func TestServerKillAndResume(t *testing.T) {
	spec := testSpecs()[1] // TuRBO on rastrigin
	ref := referenceResult(t, spec)
	root := filepath.Join(t.TempDir(), "snaps")
	ctx := context.Background()

	srv1 := &Server{SnapRoot: root}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := &Client{BaseURL: ts1.URL}
	if _, err := c1.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	eng, err := spec.Engine()
	if err != nil {
		t.Fatal(err)
	}
	ev := eng.Problem.Evaluator
	// Complete the design and cycle 1, then ask the cycle-2 batch and
	// tell only its first member before the "crash".
	for i := 0; i < 4; i++ {
		b, done, err := c1.Ask(ctx, spec.ID)
		if err != nil || done {
			t.Fatalf("ask %d: done=%v err=%v", i, done, err)
		}
		if err := tellBatch(ctx, c1, spec.ID, ev, b); err != nil {
			t.Fatal(err)
		}
	}
	b, done, err := c1.Ask(ctx, spec.ID)
	if err != nil || done {
		t.Fatalf("ask: done=%v err=%v", done, err)
	}
	y, cost := ev.Eval(b.Points[0])
	if _, err := c1.Tell(ctx, spec.ID, []session.EvalResult{{BatchID: b.ID, Member: 0, Y: y, CostNS: int64(cost)}}); err != nil {
		t.Fatal(err)
	}
	ts1.Close() // the crash: srv1 and its sessions are gone

	srv2 := &Server{SnapRoot: root}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := &Client{BaseURL: ts2.URL}
	if _, err := c2.Status(ctx, spec.ID); err == nil {
		t.Fatal("fresh server knows the session before resume")
	}
	st, err := c2.Resume(ctx, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pending) != 1 || st.Pending[0].Received != 1 {
		t.Fatalf("resumed pending ledger %+v, want one batch with one received member", st.Pending)
	}
	// Recovery protocol: fetch the in-flight work and tell the members
	// whose results died with the old server.
	pws, err := c2.PendingWork(ctx, spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, pw := range pws {
		for m, x := range pw.Batch.Points {
			if pw.Received[m] {
				continue
			}
			y, cost := ev.Eval(x)
			if _, err := c2.Tell(ctx, spec.ID, []session.EvalResult{{
				BatchID: pw.Batch.ID, Member: m, Y: y, CostNS: int64(cost),
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := driveOverHTTP(ctx, t, c2, spec)
	assertMatchesReference(t, spec.ID, ref, got)
}

// TestServerAPIErrors pins the error contract: status codes and
// all-or-nothing tell validation over the wire.
func TestServerAPIErrors(t *testing.T) {
	srv := &Server{}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	if _, err := c.Status(ctx, "ghost"); err == nil {
		t.Error("status of unknown session succeeded")
	}
	if _, _, err := c.Ask(ctx, "ghost"); err == nil {
		t.Error("ask of unknown session succeeded")
	}
	bad := testSpecs()[3]
	bad.ID = "no/slashes"
	if _, err := c.Create(ctx, bad); err == nil {
		t.Error("invalid session id accepted")
	}
	bad.ID = "bad-strategy"
	bad.Strategy = "definitely-not-a-strategy"
	if _, err := c.Create(ctx, bad); err == nil {
		t.Error("unknown strategy accepted")
	}

	spec := testSpecs()[3]
	if _, err := c.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create(ctx, spec); !errorContains(err, "already exists") {
		t.Errorf("duplicate create: %v", err)
	}

	// Exhaust the design waves without telling: the next ask must map
	// core.ErrNoBatchReady to HTTP 409 / ErrNotReady.
	waves := spec.InitSamples / spec.BatchSize
	batches := make([]*core.Batch, 0, waves)
	for i := 0; i < waves; i++ {
		b, done, err := c.Ask(ctx, spec.ID)
		if err != nil || done {
			t.Fatalf("design ask %d: done=%v err=%v", i, done, err)
		}
		batches = append(batches, b)
	}
	if _, _, err := c.Ask(ctx, spec.ID); !errors.Is(err, ErrNotReady) {
		t.Errorf("ask with outstanding design: %v, want ErrNotReady", err)
	}

	// A tell mixing one valid and one out-of-range member is rejected
	// whole: the valid member must still be tellable afterwards.
	b := batches[0]
	if _, err := c.Tell(ctx, spec.ID, []session.EvalResult{
		{BatchID: b.ID, Member: 0, Y: 1},
		{BatchID: b.ID, Member: len(b.Points), Y: 1},
	}); err == nil {
		t.Error("tell with out-of-range member accepted")
	}
	if _, err := c.Tell(ctx, spec.ID, []session.EvalResult{{BatchID: b.ID, Member: 0, Y: 1}}); err != nil {
		t.Errorf("valid member rejected after failed group tell: %v", err)
	}
}

// TestServerRejectsOversizedBodies: create and tell bodies above the
// 1 MiB cap get 413 with the JSON error body and change nothing — no
// session directory on create, no ingested result on tell — even though
// each body would otherwise decode into a valid request.
func TestServerRejectsOversizedBodies(t *testing.T) {
	root := filepath.Join(t.TempDir(), "snaps")
	srv := &Server{SnapRoot: root}
	h := srv.Handler()
	pad := `"pad": "` + strings.Repeat("x", 2<<20) + `", `
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Errorf("POST %s: error body %q (%v)", path, rec.Body.String(), err)
		}
		return rec
	}

	spec := testSpecs()[3]
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	big := append([]byte("{"+pad), raw[1:]...)
	if rec := post("/v1/sessions", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: HTTP %d, want 413", rec.Code)
	}
	if _, err := os.Stat(filepath.Join(root, spec.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("oversized create left a session directory (stat err %v)", err)
	}

	sess, err := srv.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Ask(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Status()
	tell, err := json.Marshal(TellRequest{Results: []session.EvalResult{{BatchID: b.ID, Member: 0, Y: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	big = append([]byte("{"+pad), tell[1:]...)
	if rec := post("/v1/sessions/"+spec.ID+"/tell", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized tell: HTTP %d, want 413", rec.Code)
	}
	if after := sess.Status(); !reflect.DeepEqual(before, after) {
		t.Fatalf("oversized tell changed the session:\nbefore %+v\nafter  %+v", before, after)
	}
}

func errorContains(err error, sub string) bool {
	return err != nil && strings.Contains(err.Error(), sub)
}

// TestServerCreateRefusesPersistedSpec: a Create whose snapshot directory
// already holds a persisted spec — a previous process's run — must refuse
// with ErrExists rather than silently overwrite it, and the persisted
// session must remain resumable afterwards.
func TestServerCreateRefusesPersistedSpec(t *testing.T) {
	root := filepath.Join(t.TempDir(), "snaps")
	spec := testSpecs()[3]
	if _, err := (&Server{SnapRoot: root}).Create(spec); err != nil {
		t.Fatal(err)
	}

	// A fresh server over the same root (the restarted process) knows
	// nothing about the session in memory — only the spec on disk.
	srv2 := &Server{SnapRoot: root}
	if _, err := srv2.Create(spec); !errors.Is(err, ErrExists) {
		t.Fatalf("create over persisted session: %v, want ErrExists", err)
	}
	if _, err := srv2.Resume(spec.ID); err != nil {
		t.Fatalf("resume after refused create: %v", err)
	}
}

// TestServerImportBodyBounded: the import body is capped at
// maxImportBytes, the base64 of the largest snapshot frame plus a spec.
// A body declaring more is answered 413 before a byte is read; a body
// whose length is not declared meets the same cap while it is read,
// shown here through decodeBody with a small limit.
func TestServerImportBodyBounded(t *testing.T) {
	if want := int64(base64.StdEncoding.EncodedLen(snapshot.MaxFrameBytes) + maxBodyBytes); maxImportBytes != want {
		t.Fatalf("maxImportBytes = %d, want %d", int64(maxImportBytes), want)
	}
	root := filepath.Join(t.TempDir(), "snaps")
	h := (&Server{SnapRoot: root}).Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/import", strings.NewReader(`{"spec":{}}`))
	req.ContentLength = maxImportBytes + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("import declaring %d bytes: HTTP %d, want 413 (%s)", req.ContentLength, rec.Code, rec.Body.String())
	}

	const limit = 64
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"frame":"` + strings.Repeat("A", 2*limit) + `"}`, http.StatusRequestEntityTooLarge},
		{`{"frame":"AAAA"}`, http.StatusOK},
		{`{"frame":`, http.StatusBadRequest},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions/import", strings.NewReader(tc.body))
		req.ContentLength = -1 // not declared: only reading meets the cap
		rec := httptest.NewRecorder()
		var bundle ExportBundle
		if decodeBody(rec, req, limit, "bundle", &bundle) {
			rec.WriteHeader(http.StatusOK)
		}
		if rec.Code != tc.code {
			t.Errorf("%d-byte undeclared body under a %d-byte cap: HTTP %d, want %d", len(tc.body), limit, rec.Code, tc.code)
		}
	}
	if _, err := os.Stat(root); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused imports created the snapshot root (stat err %v)", err)
	}
}
