package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/session/snapshot"
)

// oversizedSpecs are create requests whose size fields would have the
// server allocate at the client's choosing: each field at about 1<<40,
// and a negative dimension. Every one must be refused by Validate, so no
// engine is ever built from them.
func oversizedSpecs(tb testing.TB) map[string]SessionSpec {
	base := testSpecs()[3] // levy, KB-q-EGO
	rows := map[string]func(*SessionSpec){
		"dim":            func(s *SessionSpec) { s.Problem.Dim = 1 << 40 },
		"negative dim":   func(s *SessionSpec) { s.Problem.Dim = -1 },
		"batch_size":     func(s *SessionSpec) { s.BatchSize = 1 << 40; s.InitSamples = 0 },
		"init_samples":   func(s *SessionSpec) { s.InitSamples = 1 << 40 },
		"model.restarts": func(s *SessionSpec) { s.Model.Restarts = 1 << 40 },
		"horizon": func(s *SessionSpec) {
			spec := scenarioSpec(tb, s.ID)
			spec.Problem.Scenario.Horizon = 1 << 40
			*s = spec
		},
	}
	out := map[string]SessionSpec{}
	for name, edit := range rows {
		s := base
		s.ID = "big"
		edit(&s)
		out[name] = s
	}
	return out
}

// scenarioSpec is a small asynchronous scenario-cell spec, read from the
// spec.json a server wrote before the constraint and generator knobs
// became constants.
func scenarioSpec(tb testing.TB, id string) SessionSpec {
	tb.Helper()
	raw, err := os.ReadFile(parentScenarioSpec)
	if err != nil {
		tb.Fatal(err)
	}
	var s SessionSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		tb.Fatal(err)
	}
	s.ID = id
	return s
}

// parentScenarioSpec is a scenario spec.json in the format servers wrote
// while DaySpec still carried a constraint configuration: it holds
// "constraints": {}, a key the spec no longer has.
const parentScenarioSpec = "testdata/scenario_spec_v23.json"

func TestCreateRejectsOversizedSpec(t *testing.T) {
	srv := &Server{SnapRoot: t.TempDir()}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	for name, spec := range oversizedSpecs(t) {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the spec", name)
			continue
		}
		_, err := c.Create(context.Background(), spec)
		if StatusCode(err) != http.StatusBadRequest {
			t.Errorf("%s: create answered %v, want 400", name, err)
		}
	}
	if ids := srv.IDs(); len(ids) != 0 {
		t.Fatalf("oversized specs registered sessions %v", ids)
	}
	if entries, err := os.ReadDir(srv.SnapRoot); err != nil || len(entries) != 0 {
		t.Fatalf("oversized specs left %d entries in the snapshot root (err %v)", len(entries), err)
	}
}

// rawFrame keeps a snapshot frame's JSON shell and binary sections as
// they are, so a test can edit the shell and encode the frame again.
type rawFrame struct {
	shell    map[string]json.RawMessage
	sections [][]float64
}

func (r *rawFrame) UnmarshalSections(shell []byte, sections [][]float64) error {
	r.sections = sections
	return json.Unmarshal(shell, &r.shell)
}

func (r *rawFrame) MarshalSections() ([]byte, [][]float64, error) {
	shell, err := json.Marshal(r.shell)
	return shell, r.sections, err
}

// TestServerImportRefusesLedgerMissingPendingBatch: an import bundle
// whose frame drops the partial-tell ledger of a batch its engine
// checkpoint holds pending is refused with 400 and registers nothing.
// Accepted, the session would report nothing pending while the engine
// waits on the batch, and every tell for it would fail.
func TestServerImportRefusesLedgerMissingPendingBatch(t *testing.T) {
	ctx := context.Background()
	spec := testSpecs()[3]
	spec.ID = "gap"
	src := &Server{}
	srcTS := httptest.NewServer(src.Handler())
	defer srcTS.Close()
	sc := &Client{BaseURL: srcTS.URL}
	if _, err := sc.Create(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Ask(ctx, spec.ID); err != nil {
		t.Fatal(err)
	}
	bundle, err := sc.Export(ctx, spec.ID)
	if err != nil {
		t.Fatal(err)
	}

	var f rawFrame
	if err := snapshot.Decode(bundle.Frame, &f); err != nil {
		t.Fatal(err)
	}
	var cpSections int
	if err := json.Unmarshal(f.shell["checkpoint_sections"], &cpSections); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.shell["partials"]; !ok || len(f.sections) != cpSections+2 {
		t.Fatalf("exported frame: partials present %v, %d sections after %d of the checkpoint", ok, len(f.sections), cpSections)
	}
	delete(f.shell, "partials")
	f.sections = f.sections[:cpSections]
	gap := bundle
	if gap.Frame, err = snapshot.Encode(&f); err != nil {
		t.Fatal(err)
	}

	dst := &Server{SnapRoot: t.TempDir()}
	dstTS := httptest.NewServer(dst.Handler())
	defer dstTS.Close()
	dc := &Client{BaseURL: dstTS.URL}
	if _, err := dc.Import(ctx, gap); StatusCode(err) != http.StatusBadRequest || !errorContains(err, "partial ledger covers 0 of 1") {
		t.Fatalf("import of a ledger missing a pending batch: %v, want 400", err)
	}
	if ids := dst.IDs(); len(ids) != 0 {
		t.Fatalf("refused import registered %v", ids)
	}
	if _, err := dc.Import(ctx, bundle); err != nil {
		t.Fatalf("intact bundle after the refusal: %v", err)
	}
}

// TestParentScenarioSpecCreatesAndResumes: a scenario spec in the format
// servers wrote before DaySpec lost its constraint configuration — with
// "constraints": {} — still creates a session over the wire, and a
// snapshot directory whose spec.json holds it still resumes and runs to
// the end.
func TestParentScenarioSpecCreatesAndResumes(t *testing.T) {
	ctx := context.Background()
	raw, err := os.ReadFile(parentScenarioSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"constraints": {}`)) {
		t.Fatalf("%s does not hold the retired constraints key", parentScenarioSpec)
	}
	spec := scenarioSpec(t, "parent-m001-d002")
	eng, err := spec.Engine()
	if err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	srv1 := &Server{SnapRoot: root, Now: fakeNow()}
	ts1 := httptest.NewServer(srv1.Handler())
	resp, err := http.Post(ts1.URL+"/v1/sessions", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create from the parent-format spec: %d", resp.StatusCode)
	}
	c1 := &Client{BaseURL: ts1.URL}
	if res := driveAsyncHTTP(ctx, t, c1, spec.ID, eng.Problem.Evaluator, 4); res != nil {
		t.Fatal("run finished before the restart")
	}
	ts1.Close()

	// The next process finds the spec.json the older server wrote.
	if err := os.WriteFile(filepath.Join(root, spec.ID, specFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	srv2 := &Server{SnapRoot: root, Now: fakeNow()}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := &Client{BaseURL: ts2.URL}
	if _, err := c2.Resume(ctx, spec.ID); err != nil {
		t.Fatalf("resume over the parent-format spec: %v", err)
	}
	res := driveAsyncHTTP(ctx, t, c2, spec.ID, eng.Problem.Evaluator, -1)
	if res == nil || res.Evals != spec.InitSamples+spec.MaxCycles {
		t.Fatalf("resumed run: %+v", res)
	}
}

// FuzzSessionSpec holds the create request's trust boundary: decoding a
// spec and validating it never panic, and every spec Validate accepts
// assembles (or refuses to assemble) an engine and opens an ask/tell run
// without a panic, with its initial design inside the 8 MiB cap.
func FuzzSessionSpec(f *testing.F) {
	add := func(s SessionSpec) {
		raw, err := json.Marshal(&s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, s := range testSpecs() {
		add(s)
	}
	add(asyncSpec("fuzz-async"))
	add(scenarioSpec(f, "fuzz-scenario"))
	for _, s := range oversizedSpecs(f) {
		add(s)
	}
	raw, err := os.ReadFile(parentScenarioSpec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec SessionSpec
		if json.Unmarshal(data, &spec) != nil || spec.Validate() != nil {
			return
		}
		eng, err := spec.Engine()
		if err != nil {
			return
		}
		q := eng.BatchSize
		if q <= 0 {
			q = 4 // core's default
		}
		init := eng.InitSamples
		if init <= 0 {
			init = 16 * q
		}
		if n := init * eng.Problem.Dim(); n > 1<<20 {
			t.Fatalf("accepted spec sizes a %d-float design: %s", n, data)
		}
		// NewAskTell may refuse the engine; it must not panic.
		if _, err := core.NewAskTell(eng); err != nil {
			t.Logf("engine refused: %v", err)
		}
	})
}
