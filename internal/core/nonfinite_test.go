package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestTellRejectsNonFinite: a NaN or ±Inf told value, in a design wave or
// in a cycle batch, is rejected with ErrNonFinite before the run changes:
// the batch stays pending and the result, trace and clock are as they
// were. Telling the same batch again with its finite values then finishes
// bit-identical to a run that never saw the bad value.
func TestTellRejectsNonFinite(t *testing.T) {
	const seed = 41
	ref := func() *Result {
		e := askTellEngine(seed)
		at, err := NewAskTell(e)
		if err != nil {
			t.Fatal(err)
		}
		at.SetNow(fakeNow())
		return driveToCompletion(t, e, at).Clone()
	}()

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, cycle := range []int{0, 1} {
			e := askTellEngine(seed)
			at, err := NewAskTell(e)
			if err != nil {
				t.Fatal(err)
			}
			at.SetNow(fakeNow())
			ctx := context.Background()
			rejected := false
			for {
				b, err := at.Ask(ctx)
				if errors.Is(err, ErrDone) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				br, err := e.Pool.EvalBatch(ctx, e.Problem.Evaluator, b.Points)
				if err != nil {
					t.Fatal(err)
				}
				if !rejected && b.Cycle == cycle {
					rejected = true
					pending := at.Pending()
					before := at.Result().Clone()
					elapsed := at.Elapsed()
					ys := append([]float64(nil), br.Y...)
					ys[len(ys)-1] = bad
					err := at.Tell(b.ID, ys, br.Costs)
					if !errors.Is(err, ErrNonFinite) {
						t.Fatalf("value %v in cycle %d: err = %v, want ErrNonFinite", bad, cycle, err)
					}
					if !reflect.DeepEqual(at.Pending(), pending) {
						t.Fatalf("value %v in cycle %d: rejected tell changed the pending batches", bad, cycle)
					}
					if !reflect.DeepEqual(at.Result().Clone(), before) || at.Elapsed() != elapsed {
						t.Fatalf("value %v in cycle %d: rejected tell changed the run", bad, cycle)
					}
				}
				if err := at.Tell(b.ID, br.Y, br.Costs); err != nil {
					t.Fatal(err)
				}
			}
			if !rejected {
				t.Fatalf("no batch of cycle %d was asked", cycle)
			}
			if got := at.Result(); !reflect.DeepEqual(got, ref) {
				t.Fatalf("value %v in cycle %d: re-told run diverged from the reference", bad, cycle)
			}
		}
	}
}

// nanOnCall returns NaN on its n-th evaluation and x₀² + x₁² otherwise.
type nanOnCall struct {
	n     int32
	calls atomic.Int32
}

func (e *nanOnCall) Eval(x []float64) (float64, time.Duration) {
	if e.calls.Add(1) == e.n {
		return math.NaN(), time.Second
	}
	return x[0]*x[0] + x[1]*x[1], time.Second
}

// TestRunReturnsErrNonFinite: the closed loop surfaces a NaN from the
// evaluator as ErrNonFinite instead of folding it into the run.
func TestRunReturnsErrNonFinite(t *testing.T) {
	p := sphereProblem(time.Second)
	p.Evaluator = &nanOnCall{n: 3}
	e := quickEngine(p, &randomStrategy{})
	if _, err := e.Run(context.Background()); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
}
