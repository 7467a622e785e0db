package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// TestConstrainedFactoryFitBitIdentical: the objective GP and the
// violation GP fit at once when a helper is free (GOMAXPROCS 8) and one
// after the other when none is (GOMAXPROCS 1), over a cold Fit and a warm
// Refit, and both schedules give the same two models bit for bit: the
// same hyperparameter state and the same posterior and feasibility at
// probe points.
func TestConstrainedFactoryFitBitIdentical(t *testing.T) {
	spec := &DaySpec{Gen: GenConfig{Seed: 5, Members: 1}, Horizon: 1}
	prob, cons, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	stream := rng.New(5, 9)
	st := &core.State{Problem: prob}
	for i := 0; i < 30; i++ {
		x := stream.UniformVec(prob.Lo, prob.Hi)
		y, _ := cons.Eval(x)
		st.X, st.Y = append(st.X, x), append(st.Y, y)
	}
	probes := [][]float64{st.X[2], stream.UniformVec(prob.Lo, prob.Hi)}

	fingerprint := func() []byte {
		f := NewConstrainedFactory(cons, gp.Config{Lo: prob.Lo, Hi: prob.Hi, Restarts: 2, MaxIter: 10, Seed: 17}, 3)
		var out bytes.Buffer
		for _, cycle := range []int{0, 1} {
			n := 24 + 6*cycle
			m, err := f.Fit(context.Background(), &core.State{Problem: prob, X: st.X[:n], Y: st.Y[:n]}, cycle)
			if err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			state, err := f.FactoryState()
			if err != nil {
				t.Fatal(err)
			}
			out.Write(state)
			pof := m.(acq.FeasibilityProvider).Feasibility()
			for _, x := range probes {
				mean, sd := m.PredictWithGrad(x, nil, nil)
				if err := json.NewEncoder(&out).Encode([]float64{mean, sd, pof.PoFWithGrad(x, nil)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return out.Bytes()
	}
	var want []byte
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		got := fingerprint()
		runtime.GOMAXPROCS(old)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("procs=%d: models differ from procs=1:\n%s\nwant\n%s", procs, got, want)
		}
	}
}

// TestFleetParallelMatchesSerial: a fleet whose members run two at a time
// reports bit for bit what it reports with one member at a time.
func TestFleetParallelMatchesSerial(t *testing.T) {
	report := func(par int) []byte {
		cfg := FleetConfig{Gen: GenConfig{Seed: 13, Members: 3}, Days: 2, Horizon: 1, Opt: scenarioTestOpt(), Parallel: par}
		rep, err := (&Fleet{Cfg: cfg, Runner: LocalRunner{}}).Run(context.Background())
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if serial, par := report(1), report(2); !bytes.Equal(serial, par) {
		t.Fatalf("Parallel 2 report differs from Parallel 1:\n%s\nvs\n%s", par, serial)
	}
}

// probe runs a budgeted fan-out of eight 2 ms indices and raises peak to
// the most indices that ran at once.
func probe(ctx context.Context, peak *atomic.Int32) error {
	var running atomic.Int32
	return parallel.Compute(ctx, 0, 8, func(int) {
		r := running.Add(1)
		for {
			old := peak.Load()
			if r <= old || peak.CompareAndSwap(old, r) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		running.Add(-1)
	})
}

// probeRunner runs a budgeted fan-out inside every day before solving it
// in process, once every member has reached its day, and records the
// most indices of one fan-out that ran at once.
type probeRunner struct {
	arrived sync.WaitGroup
	peak    atomic.Int32
}

func (p *probeRunner) RunDay(ctx context.Context, spec *DaySpec, opt OptConfig) (*core.Result, error) {
	p.arrived.Done()
	p.arrived.Wait() // all members in flight: no slot has given its share back
	if err := probe(ctx, &p.peak); err != nil {
		return nil, err
	}
	return LocalRunner{}.RunDay(ctx, spec, opt)
}

// TestFleetReservesMemberShare: at GOMAXPROCS 2 a fleet running two
// members at a time holds the one helper the budget has, so a fan-out
// nested in a member borrows nothing and runs on the member's goroutine.
func TestFleetReservesMemberShare(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	pr := &probeRunner{}
	pr.arrived.Add(2)
	cfg := FleetConfig{Gen: GenConfig{Seed: 3, Members: 2}, Days: 1, Horizon: 1, Opt: scenarioTestOpt(), Parallel: 2}
	if _, err := (&Fleet{Cfg: cfg, Runner: pr}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := pr.peak.Load(); got != 1 {
		t.Fatalf("a fan-out inside a fleet member ran %d indices at once, want 1 (inline)", got)
	}
}

// tailRunner probes the budget from member 2 once member 1 is done. At
// Parallel 2, ForEach's slot 1 runs member 1 alone and slot 0 runs
// members 0 and 2, so by then slot 1 has no member left.
type tailRunner struct {
	member1Done chan struct{}
	once        sync.Once
	peak        atomic.Int32
}

func (r *tailRunner) RunDay(ctx context.Context, spec *DaySpec, opt OptConfig) (*core.Result, error) {
	if spec.Member == 2 {
		select {
		case <-r.member1Done:
		case <-time.After(10 * time.Second):
			return nil, context.DeadlineExceeded
		}
		// The share comes back just after member 1's RunMember returns.
		for deadline := time.Now().Add(5 * time.Second); r.peak.Load() < 2 && time.Now().Before(deadline); {
			if err := probe(ctx, &r.peak); err != nil {
				return nil, err
			}
		}
	}
	res, err := LocalRunner{}.RunDay(ctx, spec, opt)
	if spec.Member == 1 {
		r.once.Do(func() { close(r.member1Done) })
	}
	return res, err
}

// TestFleetReleasesFinishedSlotShare: once a member slot has no member
// left it gives its share of the budget back, so a fan-out in a member
// still running borrows the core the finished slot freed.
func TestFleetReleasesFinishedSlotShare(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	r := &tailRunner{member1Done: make(chan struct{})}
	cfg := FleetConfig{Gen: GenConfig{Seed: 3, Members: 3}, Days: 1, Horizon: 1, Opt: scenarioTestOpt(), Parallel: 2}
	if _, err := (&Fleet{Cfg: cfg, Runner: r}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := r.peak.Load(); got != 2 {
		t.Fatalf("member 2's fan-out ran at most %d indices at once after member 1's slot finished, want 2", got)
	}
}

// rendezvousRunner makes member 0's first day wait until member 1's first
// day has started, as a served member waits on its server.
type rendezvousRunner struct {
	started chan struct{}
	once    atomic.Bool
}

func (r *rendezvousRunner) RunDay(ctx context.Context, spec *DaySpec, opt OptConfig) (*core.Result, error) {
	if spec.Day == 0 {
		if spec.Member == 1 && r.once.CompareAndSwap(false, true) {
			close(r.started)
		}
		if spec.Member == 0 {
			select {
			case <-r.started:
			case <-time.After(10 * time.Second):
				return nil, context.DeadlineExceeded
			}
		}
	}
	return LocalRunner{}.RunDay(ctx, spec, opt)
}

// TestFleetKeepsMembersInFlightAtOneProc: at GOMAXPROCS 1, with no helper
// in the budget, a fleet at Parallel 2 still keeps both members in
// flight, so a member that waits on another still finishes.
func TestFleetKeepsMembersInFlightAtOneProc(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	r := &rendezvousRunner{started: make(chan struct{})}
	cfg := FleetConfig{Gen: GenConfig{Seed: 3, Members: 2}, Days: 1, Horizon: 1, Opt: scenarioTestOpt(), Parallel: 2}
	if _, err := (&Fleet{Cfg: cfg, Runner: r}).Run(context.Background()); err != nil {
		t.Fatalf("member 0 never saw member 1 in flight: %v", err)
	}
}
