package strategy

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
)

// detNow is a deterministic measured-time source: every call advances a
// virtual wall clock by exactly 1ms, so fit/acq durations — and therefore
// complete cycle records — are identical across independent runs.
func detNow() func() time.Time {
	t0 := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

func checkpointEngine(s core.Strategy) *core.Engine {
	e := goldenEngine(s)
	e.Pool = &parallel.Pool{Overhead: parallel.LinearOverhead(100*time.Millisecond, 50*time.Millisecond)}
	return e
}

func runAskTellLoop(t *testing.T, e *core.Engine, at *core.AskTell, stopAfterTells int) (*core.Result, *core.Checkpoint) {
	t.Helper()
	ctx := context.Background()
	tells := 0
	for {
		b, err := at.Ask(ctx)
		if errors.Is(err, core.ErrDone) {
			return at.Result(), nil
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
		tells++
		if stopAfterTells > 0 && tells == stopAfterTells {
			cp, err := at.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			return nil, cp
		}
	}
}

// TestStrategyKillAndResume is the per-strategy resume-determinism
// property for every paper strategy: a run killed after the k-th tell and
// resumed from its checkpoint — through a JSON round-trip — must finish
// with a Result bit-identical to the uninterrupted reference, including
// the History (pinned by the injected deterministic clock). k=4
// interrupts after the first cycle (fresh strategy state), k=5 after the
// second (evolved trust region / partition).
func TestStrategyKillAndResume(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			refEngine := checkpointEngine(mustByName(t, s.Name()))
			refAT, err := core.NewAskTell(refEngine)
			if err != nil {
				t.Fatal(err)
			}
			refAT.SetNow(detNow())
			ref, _ := runAskTellLoop(t, refEngine, refAT, 0)

			// 3 design waves + 3 cycles = 6 tells total.
			for _, k := range []int{4, 5} {
				e1 := checkpointEngine(mustByName(t, s.Name()))
				at1, err := core.NewAskTell(e1)
				if err != nil {
					t.Fatal(err)
				}
				at1.SetNow(detNow())
				_, cp := runAskTellLoop(t, e1, at1, k)

				data, err := json.Marshal(cp)
				if err != nil {
					t.Fatal(err)
				}
				var cp2 core.Checkpoint
				if err := json.Unmarshal(data, &cp2); err != nil {
					t.Fatal(err)
				}

				e2 := checkpointEngine(mustByName(t, s.Name()))
				at2, err := core.ResumeAskTell(e2, &cp2)
				if err != nil {
					t.Fatal(err)
				}
				at2.SetNow(detNow())
				got, _ := runAskTellLoop(t, e2, at2, 0)

				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("resume after tell %d diverged from uninterrupted run:\nref %+v\ngot %+v", k, ref, got)
				}
			}
		})
	}
}

// asyncEngine is the golden engine in the asynchronous mode (BatchSize
// points in flight, one point per ask, busy points fantasized) run for 12
// cycles rather than 3, so later asks read the state that earlier tells
// evolved.
func asyncEngine(s core.Strategy) *core.Engine {
	e := checkpointEngine(s)
	e.Mode = core.Asynchronous
	e.MaxCycles = 12
	return e
}

// driveAsyncLIFO is the deterministic LIFO drive of the asynchronous
// schedule (fill all free slots, tell the newest pending point) from the
// strategy layer's vantage, stopping after stopAfter asks and tells
// (< 0 runs to completion).
func driveAsyncLIFO(t *testing.T, e *core.Engine, at *core.AskTell, stopAfter int) (*core.Result, bool) {
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
			case errors.Is(err, core.ErrNoBatchReady), errors.Is(err, core.ErrDone):
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

// TestStatefulStrategyAsyncKillAndResume: TuRBO's trust region and
// BSP-EGO's partition ride the engine checkpoint in the asynchronous mode
// too, so a run killed mid-flight — with fantasized points outstanding —
// and resumed from the JSON round-tripped checkpoint finishes
// bit-identical to the uninterrupted reference. At every boundary the
// checkpointed state must differ from a fresh instance's, or the resume
// would prove nothing about the codec.
func TestStatefulStrategyAsyncKillAndResume(t *testing.T) {
	for _, name := range []string{"TuRBO", "BSP-EGO"} {
		t.Run(name, func(t *testing.T) {
			refEngine := asyncEngine(mustByName(t, name))
			refAT, err := core.NewAskTell(refEngine)
			if err != nil {
				t.Fatal(err)
			}
			refAT.SetNow(detNow())
			ref, done := driveAsyncLIFO(t, refEngine, refAT, -1)
			if !done {
				t.Fatal("reference run stopped early")
			}
			fresh, err := mustByName(t, name).(core.StrategyCheckpointer).StrategyState()
			if err != nil {
				t.Fatal(err)
			}

			// Boundaries straddle the design/cycle transition: 13 and 14
			// are the first two cycle asks (one then two points
			// mid-flight, replacement proposals conditioned on
			// fantasies) and 16 the third. By 26 TuRBO's region has
			// doubled, so a resume that lost its state would propose
			// from a different box: dropping RestoreStrategyState's
			// assignment fails this boundary alone. BSP-EGO's state
			// cannot steer an async run: an ask proposes one point, and
			// the split-without-merge that follows leaves three leaves
			// where the next ask wants two, so every ask rebuilds the
			// partition.
			for _, k := range []int{13, 14, 16, 26} {
				e1 := asyncEngine(mustByName(t, name))
				at1, err := core.NewAskTell(e1)
				if err != nil {
					t.Fatal(err)
				}
				at1.SetNow(detNow())
				if _, done := driveAsyncLIFO(t, e1, at1, k); done {
					t.Fatalf("boundary %d: run completed before checkpoint", k)
				}
				cp, err := at1.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(cp.StrategyState, fresh) {
					t.Fatalf("boundary %d: checkpointed state %s equals a fresh instance's", k, cp.StrategyState)
				}
				data, err := json.Marshal(cp)
				if err != nil {
					t.Fatal(err)
				}
				var cp2 core.Checkpoint
				if err := json.Unmarshal(data, &cp2); err != nil {
					t.Fatal(err)
				}

				e2 := asyncEngine(mustByName(t, name))
				at2, err := core.ResumeAskTell(e2, &cp2)
				if err != nil {
					t.Fatal(err)
				}
				at2.SetNow(detNow())
				got, done := driveAsyncLIFO(t, e2, at2, -1)
				if !done {
					t.Fatal("resumed run stopped early")
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("async resume at op %d diverged:\nref %+v\ngot %+v", k, ref, got)
				}
			}
		})
	}
}

func mustByName(t *testing.T, name string) core.Strategy {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStatefulStrategiesImplementCheckpointer pins the capability wiring:
// the strategies with cross-cycle state must expose the codec, and a fresh
// instance must round-trip its (empty and evolved) state.
func TestStatefulStrategiesImplementCheckpointer(t *testing.T) {
	for _, name := range []string{"TuRBO", "BSP-EGO"} {
		s := mustByName(t, name)
		if _, ok := s.(core.StrategyCheckpointer); !ok {
			t.Errorf("%s does not implement StrategyCheckpointer", name)
		}
	}
}

func TestTuRBOStateRoundTrip(t *testing.T) {
	s := NewTuRBO()
	s.length, s.succ, s.fail, s.haveState = 0.4, 2, 1, true

	data, err := s.StrategyState()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewTuRBO()
	if err := s2.RestoreStrategyState(data); err != nil {
		t.Fatal(err)
	}
	//lint:ignore floatcmp restored trust-region length must be bit-identical
	if s2.length != s.length || s2.succ != s.succ || s2.fail != s.fail || s2.haveState != s.haveState {
		t.Fatalf("restored state %+v differs", s2)
	}

	for _, bad := range []string{`{`, `{"length": -1, "have_state": true}`, `{"length": 0.5, "succ": -1}`} {
		if err := NewTuRBO().RestoreStrategyState([]byte(bad)); err == nil {
			t.Errorf("malformed state %q accepted", bad)
		}
	}
}

func TestBSPEGOStateRoundTrip(t *testing.T) {
	p := sphereProblem()
	s := NewBSPEGO()
	s.initPartition(p.Lo, p.Hi, 4)
	// Evolve the geometry so the tree is not the balanced initial shape.
	s.leaves[0].split(p.Lo, p.Hi)
	s.refreshLeaves()

	data, err := s.StrategyState()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewBSPEGO()
	if err := s2.RestoreStrategyState(data); err != nil {
		t.Fatal(err)
	}
	if len(s2.leaves) != len(s.leaves) {
		t.Fatalf("restored %d leaves, want %d", len(s2.leaves), len(s.leaves))
	}
	for i := range s.leaves {
		if !reflect.DeepEqual(s.leaves[i].lo, s2.leaves[i].lo) || !reflect.DeepEqual(s.leaves[i].hi, s2.leaves[i].hi) {
			t.Fatalf("leaf %d geometry differs", i)
		}
	}
	// Parent links must be intact: walking up from any leaf reaches root.
	for i, leaf := range s2.leaves {
		n := leaf
		for n.parent != nil {
			n = n.parent
		}
		if n != s2.root {
			t.Fatalf("leaf %d not rooted", i)
		}
	}

	// Empty state round-trips to an unpartitioned strategy.
	empty, err := NewBSPEGO().StrategyState()
	if err != nil {
		t.Fatal(err)
	}
	s3 := NewBSPEGO()
	s3.initPartition(p.Lo, p.Hi, 4)
	if err := s3.RestoreStrategyState(empty); err != nil {
		t.Fatal(err)
	}
	if s3.root != nil || s3.leaves != nil {
		t.Fatal("empty state did not clear the partition")
	}

	for _, bad := range []string{
		`{`,
		`{"root": {"lo": [0], "hi": []}}`,
		`{"root": {"lo": [0], "hi": [1], "left": {"lo": [0], "hi": [1]}}}`,
		`{"root": {"lo": [1], "hi": [0]}}`,
	} {
		if err := NewBSPEGO().RestoreStrategyState([]byte(bad)); err == nil {
			t.Errorf("malformed state %q accepted", bad)
		}
	}
}
