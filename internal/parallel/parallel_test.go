package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// mustEvalBatch fails the test on a cancellation error; used by the
// happy-path tests that run under context.Background().
func mustEvalBatch(t *testing.T, p *Pool, ev Evaluator, xs [][]float64) BatchResult {
	t.Helper()
	br, err := p.EvalBatch(context.Background(), ev, xs)
	if err != nil {
		t.Fatalf("EvalBatch: %v", err)
	}
	return br
}

func TestEvalBatchValuesAligned(t *testing.T) {
	ev := FixedCost(sum, time.Second)
	p := &Pool{}
	xs := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	br := mustEvalBatch(t, p, ev, xs)
	want := []float64{3, 7, 11}
	for i := range want {
		if br.Y[i] != want[i] {
			t.Fatalf("Y = %v, want %v", br.Y, want)
		}
	}
}

func TestEvalBatchVirtualIsMax(t *testing.T) {
	// Cost keyed by the point's first coordinate: the batch's virtual
	// duration is the maximum member cost.
	ev := EvaluatorFunc(func(x []float64) (float64, time.Duration) {
		return x[0], time.Duration(x[0]) * time.Second
	})
	p := &Pool{}
	br := mustEvalBatch(t, p, ev, [][]float64{{2}, {5}, {1}})
	if br.Virtual != 5*time.Second {
		t.Fatalf("virtual = %v, want 5s", br.Virtual)
	}
}

func TestEvalBatchOverheadAdded(t *testing.T) {
	ev := FixedCost(sum, time.Second)
	p := &Pool{Overhead: LinearOverhead(100*time.Millisecond, 50*time.Millisecond)}
	br := mustEvalBatch(t, p, ev, [][]float64{{1}, {2}, {3}, {4}})
	want := time.Second + 100*time.Millisecond + 4*50*time.Millisecond
	if br.Virtual != want {
		t.Fatalf("virtual = %v, want %v", br.Virtual, want)
	}
}

func TestEvalBatchLimitedWorkersWavePacking(t *testing.T) {
	ev := FixedCost(sum, 10*time.Second)
	p := &Pool{Workers: 2}
	br := mustEvalBatch(t, p, ev, [][]float64{{1}, {2}, {3}, {4}, {5}})
	// 5 evals on 2 workers: 3 waves of 10s.
	if br.Virtual != 30*time.Second {
		t.Fatalf("virtual = %v, want 30s", br.Virtual)
	}
}

func TestEvalBatchEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty batch")
		}
	}()
	if _, err := (&Pool{}).EvalBatch(context.Background(), FixedCost(sum, 0), nil); err != nil {
		t.Fatalf("EvalBatch: %v", err)
	}
}

func TestEvalBatchActuallyConcurrent(t *testing.T) {
	// Real sleep of 30ms × 8 members must complete in well under the
	// serial 240ms when run concurrently.
	ev := EvaluatorFunc(func(x []float64) (float64, time.Duration) {
		time.Sleep(30 * time.Millisecond)
		return 0, 0
	})
	p := &Pool{}
	start := time.Now()
	mustEvalBatch(t, p, ev, make([][]float64, 8))
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("batch took %v, expected concurrent execution", elapsed)
	}
}

func TestEvalBatchCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := int32(0)
	ev := EvaluatorFunc(func(x []float64) (float64, time.Duration) {
		atomic.AddInt32(&calls, 1)
		return 0, 0
	})
	_, err := (&Pool{}).EvalBatch(ctx, ev, [][]float64{{1}, {2}})
	if err == nil {
		t.Fatal("expected error from pre-cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if got := atomic.LoadInt32(&calls); got != 0 {
		t.Fatalf("evaluator ran %d times after cancel", got)
	}
}

func TestEvalBatchCancelMidBatchDrains(t *testing.T) {
	// One worker, four members: cancel while the first member is in
	// flight. The in-flight member completes (drain semantics), later
	// members are skipped, and EvalBatch reports the abandoned batch.
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var calls int32
	ev := EvaluatorFunc(func(x []float64) (float64, time.Duration) {
		if atomic.AddInt32(&calls, 1) == 1 {
			close(started)
			time.Sleep(20 * time.Millisecond)
		}
		return x[0], 0
	})
	p := &Pool{Workers: 1}
	done := make(chan error, 1)
	go func() {
		_, err := p.EvalBatch(ctx, ev, [][]float64{{1}, {2}, {3}, {4}})
		done <- err
	}()
	<-started
	cancel()
	err := <-done
	if err == nil {
		t.Fatal("expected abandoned-batch error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if got := atomic.LoadInt32(&calls); got >= 4 {
		t.Fatalf("all %d members ran despite cancellation", got)
	}
}

func TestLinearOverhead(t *testing.T) {
	f := LinearOverhead(time.Second, 100*time.Millisecond)
	if f(4) != time.Second+400*time.Millisecond {
		t.Fatalf("overhead(4) = %v", f(4))
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 7, 64} {
		n := 23
		counts := make([]int32, n)
		if err := ForEach(context.Background(), workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		}); err != nil {
			t.Fatalf("ForEach: %v", err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers, n = 3, 24
	var cur, peak int32
	if err := ForEach(context.Background(), workers, n, func(int) {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
	}); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent calls, worker bound is %d", peak, workers)
	}
}

func TestForEachEmpty(t *testing.T) {
	ran := false
	if err := ForEach(context.Background(), 4, 0, func(int) { ran = true }); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if err := ForEach(context.Background(), 4, -3, func(int) { ran = true }); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if ran {
		t.Fatal("fn ran for n <= 0")
	}
}

func TestForEachCancelledStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int32(0)
	err := ForEach(ctx, 2, 100, func(int) { atomic.AddInt32(&ran, 1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := atomic.LoadInt32(&ran); got != 0 {
		t.Fatalf("fn ran %d times after cancel", got)
	}
}

func TestForEachCancelMidRunSerial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err := ForEach(ctx, 1, 10, func(i int) {
		ran++
		if i == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 4 {
		t.Fatalf("fn ran %d times, want 4 (indices 0..3)", ran)
	}
}

// TestEvalBatchUnboundedClampsGoroutines: Workers == 0 means one virtual
// MPI rank per batch member for accounting, but the number of real
// goroutines is clamped — a pathological batch must not get a goroutine
// per member. The evaluator tracks its own high-water concurrency mark.
func TestEvalBatchUnboundedClampsGoroutines(t *testing.T) {
	q := 4 * maxUnboundedGoroutines()
	var inFlight, peak atomic.Int64
	ev := EvaluatorFunc(func(x []float64) (float64, time.Duration) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer inFlight.Add(-1)
		return x[0], time.Duration(int64(x[0])) * time.Millisecond
	})
	xs := make([][]float64, q)
	for i := range xs {
		xs[i] = []float64{float64(i + 1)}
	}
	br := mustEvalBatch(t, &Pool{Workers: 0}, ev, xs)
	if got := int(peak.Load()); got > maxUnboundedGoroutines() {
		t.Fatalf("peak concurrency %d exceeds clamp %d", got, maxUnboundedGoroutines())
	}
	for i := range xs {
		if br.Y[i] != float64(i+1) {
			t.Fatalf("Y[%d] = %v, want %v", i, br.Y[i], float64(i+1))
		}
	}
	// The clamp is invisible in virtual time: unbounded still accounts one
	// rank per member, so the round costs its single slowest evaluation.
	if want := time.Duration(q) * time.Millisecond; br.Virtual != want {
		t.Fatalf("Virtual = %v, want max member cost %v", br.Virtual, want)
	}
}

func TestEvalBatchReportsCosts(t *testing.T) {
	ev := EvaluatorFunc(func(x []float64) (float64, time.Duration) {
		return x[0], time.Duration(x[0]) * time.Second
	})
	p := &Pool{}
	br := mustEvalBatch(t, p, ev, [][]float64{{2}, {5}, {1}})
	want := []time.Duration{2 * time.Second, 5 * time.Second, time.Second}
	for i := range want {
		if br.Costs[i] != want[i] {
			t.Fatalf("Costs = %v, want %v", br.Costs, want)
		}
	}
}

// TestVirtualDurationMatchesEvalBatch pins the ask/tell contract: a session
// recomputing the batch time from told member costs must land on exactly
// the value EvalBatch reported, for unbounded and wave-packed pools alike.
func TestVirtualDurationMatchesEvalBatch(t *testing.T) {
	ev := EvaluatorFunc(func(x []float64) (float64, time.Duration) {
		return x[0], time.Duration(x[0]*100) * time.Millisecond
	})
	xs := [][]float64{{7}, {2}, {9}, {4}, {1}, {6}}
	for _, p := range []*Pool{
		{},
		{Workers: 2},
		{Workers: 4, Overhead: LinearOverhead(100*time.Millisecond, 50*time.Millisecond)},
		{Overhead: LinearOverhead(time.Second, 0)},
	} {
		br := mustEvalBatch(t, p, ev, xs)
		if got := p.VirtualDuration(br.Costs); got != br.Virtual {
			t.Fatalf("%v: VirtualDuration = %v, EvalBatch reported %v", p, got, br.Virtual)
		}
	}
}

// withProcs runs fn at the given GOMAXPROCS and restores the old value.
func withProcs(procs int, fn func()) {
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// nested runs a three-deep budgeted fan-out — Compute over n outer
// indices, ForEachBand over n middle bands of width 1, Compute over n
// inner indices — and calls leaf(i, j, k) once per innermost index.
func nested(n int, leaf func(i, j, k int)) error {
	return Compute(context.Background(), 0, n, func(i int) {
		if err := ForEachBand(context.Background(), 0, n, 1, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				if err := Compute(context.Background(), 0, n, func(k int) { leaf(i, j, k) }); err != nil {
					panic(err)
				}
			}
		}); err != nil {
			panic(err)
		}
	})
}

// TestComputeNestedRunsEveryIndexOnce: fan-outs nested three deep run
// every innermost index exactly once, whether the budget lends no helper
// (GOMAXPROCS 1) or several, and every helper is back in the budget when
// the outermost call returns.
func TestComputeNestedRunsEveryIndexOnce(t *testing.T) {
	const n = 6
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			counts := make([]int32, n*n*n)
			if err := nested(n, func(i, j, k int) { atomic.AddInt32(&counts[(i*n+j)*n+k], 1) }); err != nil {
				t.Fatalf("procs=%d: %v", procs, err)
			}
			for idx, c := range counts {
				if c != 1 {
					t.Fatalf("procs=%d: index %d ran %d times", procs, idx, c)
				}
			}
			if got := lent.Load(); got != 0 {
				t.Fatalf("procs=%d: %d helpers still lent after the fan-out", procs, got)
			}
		})
	}
}

// TestComputeHelperHighWater: however the fan-outs nest, the budget never
// lends more than GOMAXPROCS−1 helpers at once, so no more than GOMAXPROCS
// goroutines — the callers' one plus the helpers — run leaf work at the
// same time.
func TestComputeHelperHighWater(t *testing.T) {
	for _, procs := range []int{2, 8} {
		withProcs(procs, func() {
			var running, peakRunning, peakLent atomic.Int64
			raise := func(peak *atomic.Int64, v int64) {
				for {
					p := peak.Load()
					if v <= p || peak.CompareAndSwap(p, v) {
						return
					}
				}
			}
			if err := nested(4, func(int, int, int) {
				raise(&peakRunning, running.Add(1))
				raise(&peakLent, lent.Load())
				time.Sleep(100 * time.Microsecond)
				running.Add(-1)
			}); err != nil {
				t.Fatalf("procs=%d: %v", procs, err)
			}
			if got := peakLent.Load(); got > int64(procs-1) {
				t.Fatalf("procs=%d: %d helpers lent at once, budget is %d", procs, got, procs-1)
			}
			if got := peakRunning.Load(); got > int64(procs) {
				t.Fatalf("procs=%d: %d leaves ran at once on %d procs", procs, got, procs)
			}
		})
	}
}

// TestComputeReservedRunsOnCaller: with the whole budget reserved, a
// fan-out borrows no helper and runs every index on its caller, in
// order; releasing the reservation returns the budget.
func TestComputeReservedRunsOnCaller(t *testing.T) {
	withProcs(4, func() {
		release := Reserve(3)
		var running, peak atomic.Int64
		var order []int
		if err := Compute(context.Background(), 0, 8, func(i int) {
			if r := running.Add(1); r > peak.Load() {
				peak.Store(r)
			}
			order = append(order, i) // safe only if every index runs on the caller
			time.Sleep(200 * time.Microsecond)
			running.Add(-1)
		}); err != nil {
			t.Fatal(err)
		}
		if got := lent.Load(); got != 3 {
			t.Fatalf("lent = %d during the reservation, want 3", got)
		}
		release()
		if peak.Load() != 1 {
			t.Fatalf("%d indices ran at once with the budget reserved", peak.Load())
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("inline order %v, want 0..7", order)
			}
		}
		if got := lent.Load(); got != 0 {
			t.Fatalf("lent = %d after release, want 0", got)
		}
	})
}

// TestComputeCancelled: a cancelled context starts no index, with or
// without helpers to borrow, and the call returns ctx.Err(); cancelling
// mid-run on the caller stops before the next index.
func TestComputeCancelled(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var ran atomic.Int32
			if err := Compute(ctx, 0, 50, func(int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
				t.Fatalf("procs=%d: Compute err = %v, want context.Canceled", procs, err)
			}
			if err := ForEachBand(ctx, 0, 50, 4, func(int, int) { ran.Add(1) }); !errors.Is(err, context.Canceled) {
				t.Fatalf("procs=%d: ForEachBand err = %v, want context.Canceled", procs, err)
			}
			if got := ran.Load(); got != 0 {
				t.Fatalf("procs=%d: %d indices started after cancel", procs, got)
			}
			if got := lent.Load(); got != 0 {
				t.Fatalf("procs=%d: %d helpers still lent", procs, got)
			}
		})
	}
	withProcs(1, func() {
		ctx, cancel := context.WithCancel(context.Background())
		ran := 0
		err := Compute(ctx, 0, 10, func(i int) {
			ran++
			if i == 3 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) || ran != 4 {
			t.Fatalf("err = %v after %d indices, want context.Canceled after 4", err, ran)
		}
	})
}

// TestForEachSpawnsAtOneProc: ForEach keeps all its workers in flight
// whatever the budget holds, so indices that wait on each other — a
// server beside its signal watcher, fleet members in flight — finish even
// at GOMAXPROCS 1 with the budget reserved.
func TestForEachSpawnsAtOneProc(t *testing.T) {
	withProcs(1, func() {
		release := Reserve(1)
		defer release()
		ready := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			done <- ForEach(context.Background(), 2, 2, func(i int) {
				if i == 0 {
					<-ready
				} else {
					close(ready)
				}
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("ForEach(2, 2) with index 0 waiting on index 1 did not finish")
		}
	})
}
