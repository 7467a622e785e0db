package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleResult() *Result {
	return &Result{
		Problem: "sphere", Strategy: "KB-q-EGO", Batch: 2,
		BestX: []float64{0.1, -0.2}, BestY: 0.05,
		Cycles: 2, Evals: 6, InitEvals: 2, Fallbacks: 1,
		Virtual: 42 * time.Second,
		History: []CycleRecord{
			{Cycle: 1, Evals: 4, BestY: 0.3, Virtual: 20 * time.Second,
				FitTime: time.Second, AcqTime: 2 * time.Second, EvalTime: 10 * time.Second,
				Fallback: true, FallbackReason: "empty batch"},
			{Cycle: 2, Evals: 6, BestY: 0.05, Virtual: 42 * time.Second,
				FitTime: time.Second, AcqTime: time.Second, EvalTime: 10 * time.Second},
		},
		X: [][]float64{{1, 1}, {0.5, 0.5}, {0.3, 0.1}, {0.2, 0}, {0.1, -0.2}, {0.4, 0.4}},
		Y: []float64{2, 0.5, 0.1, 0.04, 0.05, 0.32},
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	r := sampleResult()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Problem != r.Problem || back.Strategy != r.Strategy || back.Batch != r.Batch {
		t.Fatalf("metadata mismatch: %+v", back)
	}
	if back.BestY != r.BestY || back.Virtual != r.Virtual {
		t.Fatalf("values mismatch: %v %v", back.BestY, back.Virtual)
	}
	if len(back.History) != 2 || back.History[1].AcqTime != time.Second {
		t.Fatalf("history mismatch: %+v", back.History)
	}
	if back.Fallbacks != 1 {
		t.Fatalf("fallbacks not round-tripped: %+v", back)
	}
	if !back.History[0].Fallback || back.History[0].FallbackReason != "empty batch" {
		t.Fatalf("fallback record not round-tripped: %+v", back.History[0])
	}
	if back.History[1].Fallback || back.History[1].FallbackReason != "" {
		t.Fatalf("spurious fallback after round trip: %+v", back.History[1])
	}
	if len(back.Y) != 6 || back.Y[3] != 0.04 {
		t.Fatalf("trace mismatch: %v", back.Y)
	}
}

// TestResultJSONRoundTripExact: with whole-second durations (exact in
// the float-seconds wire encoding) the decoded Result must equal the
// original field-for-field, History included. Trace floats always
// round-trip exactly through JSON.
func TestResultJSONRoundTripExact(t *testing.T) {
	r := sampleResult()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("round trip not exact:\n in %+v\nout %+v", r, back)
	}
}

// TestReadResultJSONWireFormat pins the decode side against a
// hand-written document: every wire field name, including the omitempty
// fallback pair, maps onto the right Result field. A renamed JSON tag
// would pass a round-trip test and still break every archived result on
// disk; this test is what fails instead.
func TestReadResultJSONWireFormat(t *testing.T) {
	doc := `{
		"problem": "uphes", "strategy": "TuRBO", "batch": 4,
		"best_x": [0.25, -1.5], "best_y": -330.25,
		"cycles": 2, "evals": 10, "init_evals": 2, "fallbacks": 1,
		"virtual_seconds": 90.5,
		"history": [
			{"cycle": 1, "evals": 6, "best_y": -400.0, "virtual_seconds": 41.25,
			 "fit_seconds": 1.5, "acq_seconds": 0.75, "eval_seconds": 39.0,
			 "fallback": true, "fallback_reason": "acquisition produced no candidates"},
			{"cycle": 2, "evals": 10, "best_y": -330.25, "virtual_seconds": 90.5,
			 "fit_seconds": 0.5, "acq_seconds": 0.25, "eval_seconds": 48.5}
		],
		"x": [[1, 2], [3, 4]],
		"y": [-400.0, -330.25]
	}`
	r, err := ReadResultJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{
		Problem: "uphes", Strategy: "TuRBO", Batch: 4,
		BestX: []float64{0.25, -1.5}, BestY: -330.25,
		Cycles: 2, Evals: 10, InitEvals: 2, Fallbacks: 1,
		Virtual: 90*time.Second + 500*time.Millisecond,
		History: []CycleRecord{
			{Cycle: 1, Evals: 6, BestY: -400,
				Virtual: 41*time.Second + 250*time.Millisecond,
				FitTime: 1500 * time.Millisecond, AcqTime: 750 * time.Millisecond,
				EvalTime: 39 * time.Second,
				Fallback: true, FallbackReason: "acquisition produced no candidates"},
			{Cycle: 2, Evals: 10, BestY: -330.25,
				Virtual: 90*time.Second + 500*time.Millisecond,
				FitTime: 500 * time.Millisecond, AcqTime: 250 * time.Millisecond,
				EvalTime: 48*time.Second + 500*time.Millisecond},
		},
		X: [][]float64{{1, 2}, {3, 4}},
		Y: []float64{-400, -330.25},
	}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("decoded wire document:\ngot  %+v\nwant %+v", r, want)
	}
	// Absent omitempty fields decode to their zero values, not garbage.
	if r.History[1].Fallback || r.History[1].FallbackReason != "" {
		t.Fatalf("record without fallback fields decoded as %+v", r.History[1])
	}
}

func TestReadResultJSONBadInput(t *testing.T) {
	if _, err := ReadResultJSON(strings.NewReader("{nonsense")); err == nil {
		t.Fatal("expected decode error")
	}
}
