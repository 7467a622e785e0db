package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/strategy"
)

// tiny shrinks a workload so a run takes seconds while every percentile
// its JSON line carries still has ten samples beyond it.
func tiny(workload string, trace bool, dir string) config {
	s := sizes{cycles: 2, init: 8, members: 2, days: 2, minUnits: 5, probes: 5}
	if workload == "paper-day" {
		s = sizes{cycles: 3, init: 16, minUnits: 7, probes: 5}
	}
	return config{workload: workload, seed: 7, trace: trace, workdir: dir, sizes: s}
}

// TestWorkloadsTiny runs each workload untraced and traced: every output
// check passes (the traced run's bit-identity with the untraced one
// among them), every metric is printed, and the JSON line carries
// exactly the metric set BENCHMARK.json declares for the mode.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			mode := "untraced"
			if trace {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				rep, err := execute(context.Background(), tiny(name, trace, t.TempDir()))
				if err != nil {
					t.Fatal(err)
				}
				out := rep.text()
				for _, c := range rep.checks {
					if !c.ok {
						t.Errorf("check failed: %s", c.what)
					}
				}
				if trace && !strings.Contains(out, "ok   traced pass reproduces the untraced results") {
					t.Errorf("traced run did not check bit-identity with the untraced pass:\n%s", out)
				}
				printed := append([]string{"cell_p50_s", "ask_p90_ms", "tell_p50_ms", "tell_p99_ms", "profit_eur"}, gated...)
				declared := gated
				if trace {
					printed = append([]string{"gp.fit_p90_ms"}, layers...)
					declared = layers
				}
				for _, m := range printed {
					if !strings.Contains(out, "  "+m+" ") {
						t.Errorf("metric %s not printed:\n%s", m, out)
					}
				}
				lines := strings.Split(strings.TrimSpace(out), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
				}
				var got []string
				for k := range res.Metrics {
					got = append(got, k)
				}
				sort.Strings(got)
				want := append([]string(nil), declared...)
				sort.Strings(want)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("JSON metrics %v, want %v\n%s", got, want, out)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result %+v, want correct with no failures", res)
				}
			})
		}
	}
}

// failingWorkload runs one day per unit and fails unit failAt's day, the
// way a failed cell surfaces from Fleet.Run.
type failingWorkload struct{ failAt int }

func (f failingWorkload) pass(_ context.Context, rec *recorder, body func(unitFunc) error) error {
	return body(func(i int) (unitOut, error) {
		s := span{ID: rec.newID(), Name: "scenario.day", Cycle: -1, Start: rec.now()}
		var err error
		if i == f.failAt {
			err = errors.New("injected cell failure")
		}
		s.End = rec.now() + 1
		rec.addDay(s, dayRec{id: s.ID, err: err, evals: f.wantEvals()})
		return unitOut{}, err
	})
}

func (failingWorkload) probe(context.Context, *recorder) (time.Duration, error) {
	return time.Microsecond, nil
}

func (failingWorkload) wantEvals() int { return 10 }

// TestFailedCellKeepsRecord: a failed unit ends its pass but not the
// record. The record still prints, its checks name the failure,
// success_frac counts the failed cell, and the JSON line reads
// correct=false.
func TestFailedCellKeepsRecord(t *testing.T) {
	for _, trace := range []bool{false, true} {
		cfg := config{workload: "fleet-local", seed: 7, window: time.Nanosecond, trace: trace, workdir: t.TempDir(),
			sizes: sizes{minUnits: 5, probes: 10}}
		rep, err := executeWith(context.Background(), cfg, failingWorkload{failAt: 3})
		if err != nil {
			t.Fatal(err)
		}
		out := rep.text()
		if rep.correct() {
			t.Errorf("trace=%v: a failed cell passed the checks:\n%s", trace, out)
		}
		for _, want := range []string{"FAIL " + map[bool]string{true: "untraced pass: "}[trace] + "the pass ended early after 3 units: unit 3: injected cell failure", "(1 of 4 failed)"} {
			if !strings.Contains(out, want) {
				t.Errorf("trace=%v: record lacks %q:\n%s", trace, want, out)
			}
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
		}
		if res.Correct || res.Attempted != 4 || res.Failed != 1 {
			t.Errorf("trace=%v: result %+v, want correct=false, attempted 4, failed 1", trace, res)
		}
		if m, ok := res.Metrics["success_frac"]; !trace && (!ok || m.Value != 0.75) {
			t.Errorf("success_frac %+v, want 0.75", m)
		}
	}
}

// TestStrategiesReportNoAcqSpeedup pins what newDay relies on: the engine
// divides neither strategy's AcqTime by a speed-up.
func TestStrategiesReportNoAcqSpeedup(t *testing.T) {
	for _, c := range []struct {
		name string
		q    int
	}{{paperStrategy, paperQ}, {fleetStrategy, fleetQ}, {fleetStrategy, 1}} {
		s, err := strategy.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.APParallelism(c.q); got != 1 {
			t.Errorf("%s: APParallelism(%d) = %d, want 1", c.name, c.q, got)
		}
	}
}

// TestMetricSetsMatchBenchmarkJSON keeps the emitted metric sets and
// units in step with the declarations that gating reads.
func TestMetricSetsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	units := map[string]string{}
	for _, m := range endToEnd("fleet-served", &pass{elapsed: 1}, 1, 0) {
		units[m.name] = m.unit
	}
	for _, m := range layerMetrics("fleet-served", &pass{elapsed: 1}, readRuntime(), readRuntime()) {
		units[m.name] = m.unit
	}
	for _, set := range []struct {
		decl []struct{ Name, Unit string }
		code []string
	}{{b.EndToEnd, gated}, {b.PerLayer, layers}} {
		names = nil
		for _, m := range set.decl {
			names = append(names, m.Name)
			if units[m.Name] != m.Unit {
				t.Errorf("%s: BENCHMARK.json unit %q, emitted %q", m.Name, m.Unit, units[m.Name])
			}
		}
		if strings.Join(names, ",") != strings.Join(set.code, ",") {
			t.Errorf("BENCHMARK.json declares %v, the code emits %v", names, set.code)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "paper-day", "--trace", "2"},
		{"--workload", "paper-day", "--seconds", "0"},
		{"--workload", "paper-day", "extra"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{19, 50, false, 0},
		{20, 50, true, 10.5},
		{99, 90, false, 0},
		{100, 90, true, 90.1},
		{999, 99, false, 0},
	} {
		v, ok := percentile(xs(c.n), c.p)
		if ok != c.ok || (ok && (v < c.want-1e-9 || v > c.want+1e-9)) {
			t.Errorf("percentile(n=%d, p%v) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
	if m := pct("x", "ms", nil, 50, 1); !m.ok || m.n != 0 {
		t.Errorf("a layer without samples must report 0, got %+v", m)
	}
}

func TestSelfTimesSubtractCoveredUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 4, Start: 60, End: 65},
		{ID: 6, Parent: 1, Start: 95, End: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 40 - 10 - 5, 4: 5, 5: 5} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
}

func TestRequestClassification(t *testing.T) {
	for _, c := range []struct {
		method, path, op string
		status           int
		waste            bool
	}{
		{http.MethodPost, "/v1/sessions", "create", 201, false},
		{http.MethodGet, "/v1/sessions/f-m000-d000", "status", 404, true},
		{http.MethodDelete, "/v1/sessions/f-m000-d000", "evict", 200, false},
		{http.MethodPost, "/v1/sessions/f-m000-d000/resume", "resume", 409, true},
		{http.MethodPost, "/v1/sessions/f-m000-d000/ask", "ask", 409, true},
		{http.MethodGet, "/v1/sessions/f-m000-d000/ask", "askwait", 200, false},
		{http.MethodPost, "/v1/sessions/f-m000-d000/tell", "tell", 409, false},
		{http.MethodPost, "/v1/sessions/import", "import", 201, false},
		{http.MethodGet, "/v1/metrics", "metrics", 200, false},
	} {
		req := httptest.NewRequest(c.method, c.path, nil)
		s := span{Op: requestOp(req), Status: c.status}
		if s.Op != c.op || wasted(&s) != c.waste {
			t.Errorf("%s %s %d: op %q waste %v, want %q %v", c.method, c.path, c.status, s.Op, wasted(&s), c.op, c.waste)
		}
	}
}
