package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	pbo "repro"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/strategy"
)

// Workload names, in the order the doc presents them.
var workloadNames = []string{"paper-day", "fleet-local", "fleet-served"}

const (
	// overheadFactor is set explicitly so CycleRecord fit and
	// acquisition times are wall times. Days end on MaxCycles under an
	// unbounded virtual budget, so the factor never touches a trace.
	overheadFactor = 1
	// unbounded is the virtual budget of every day: about 146 years.
	unbounded = time.Duration(1 << 62)

	paperStrategy = "KB-q-EGO"
	paperQ        = 8
	fleetStrategy = "mic-q-EGO"
	fleetQ        = 4
	fleetHorizon  = 2
	// drivers is the closed-loop client count of the fleets: members
	// run two at a time (Fleet.Parallel), and the served fleet's
	// transport holds at most two connections.
	drivers = 2
)

// sizes fixes how much work one unit does and how much a run always
// completes; the benchmark's tests shrink them.
type sizes struct {
	cycles   int // BO cycles per day
	init     int // initial design per day (0: the engine's 16·q)
	members  int // fleet round grid: members × days
	days     int
	minUnits int // units completed even when the window has closed
	probes   int // set-ups timed behind setup_s after every unit
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	workdir  string // span files
	// snapDir is a directory of this run only, created empty. The served
	// fleet's snapshot roots are paths under it that no server has used.
	snapDir string
	sizes
}

// defaultSizes are the measured configurations; README.md gives the
// timings behind them.
func defaultSizes(workload string) sizes {
	if workload == "paper-day" {
		return sizes{cycles: 8, minUnits: 3, probes: 41}
	}
	return sizes{cycles: 8, members: 2, days: 3, minUnits: 4, probes: 41}
}

// unitSeed derives unit i's seed from the run seed (splitmix64), so
// every replicate and fleet round is an independent input.
func unitSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// unitOut is what one unit — a paper-day replicate or a fleet round —
// produced.
type unitOut struct {
	profit    float64 // paper-day: best expected profit; fleets: Report.Mean
	digest    uint64  // bit-identity fingerprint of everything the unit computed
	violating int     // committed violating days (fleets)
}

type unitFunc func(i int) (unitOut, error)

// workload is one closed-loop benchmark workload.
type workload interface {
	// pass prepares what the units of a measured pass share — the
	// loopback server on fleet-served, nothing in process — and calls
	// body with the function that runs unit i.
	pass(ctx context.Context, rec *recorder, body func(unitFunc) error) error
	// probe times one set-up through the production entry point, from
	// the start of the workload until its first day's optimization
	// begins; rec decides whether the set-up is the traced one.
	probe(ctx context.Context, rec *recorder) (time.Duration, error)
	// wantEvals is a day's configured evaluation count.
	wantEvals() int
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "paper-day":
		return &paperDay{cfg: cfg}, nil
	case "fleet-local":
		return &fleet{cfg: cfg}, nil
	case "fleet-served":
		return &fleet{cfg: cfg, served: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

// ---- paper-day ----

// paperDay is the paper's UPHES day: the default plant and market,
// KB-q-EGO at q=8, synchronous, run through pbo.OptimizeContext; units
// are replicate seeds run back to back.
type paperDay struct{ cfg config }

func (w *paperDay) wantEvals() int {
	init := w.cfg.init
	if init == 0 {
		init = 16 * paperQ
	}
	return init + w.cfg.cycles*paperQ
}

func (w *paperDay) options(i int) pbo.Options {
	return pbo.Options{
		Strategy:       paperStrategy,
		BatchSize:      paperQ,
		InitSamples:    w.cfg.init,
		Budget:         unbounded,
		MaxCycles:      w.cfg.cycles,
		OverheadFactor: overheadFactor,
		Seed:           unitSeed(w.cfg.seed, i),
	}
}

func (w *paperDay) pass(ctx context.Context, rec *recorder, body func(unitFunc) error) error {
	return body(func(i int) (unitOut, error) {
		s := span{ID: rec.newID(), Name: "pbo.day", Cycle: -1}
		s.Cell = s.ID
		s.Start = rec.now()
		var res *core.Result
		p, err := pbo.UPHESProblem(pbo.DefaultUPHESConfig())
		if err == nil {
			if rec.traced {
				res, err = w.traced(ctx, rec, p, s.ID, i)
			} else {
				res, err = pbo.OptimizeContext(ctx, p, w.options(i))
			}
		}
		s.End = rec.now()
		rec.addDay(s, newDay(s.ID, res, err, paperQ))
		if err != nil {
			return unitOut{}, err
		}
		return unitOut{profit: res.BestY, digest: digestResult(res)}, nil
	})
}

// traced builds the engine exactly as pbo.OptimizeContext does and
// drives it through runEngine.
func (w *paperDay) traced(ctx context.Context, rec *recorder, p *pbo.Problem, cell int64, i int) (*core.Result, error) {
	o := w.options(i)
	strat, err := strategy.ByName(o.Strategy)
	if err != nil {
		return nil, err
	}
	e := &core.Engine{
		Problem:        p,
		Strategy:       strat,
		BatchSize:      o.BatchSize,
		InitSamples:    o.InitSamples,
		Budget:         o.Budget,
		MaxCycles:      o.MaxCycles,
		OverheadFactor: o.OverheadFactor,
		Seed:           o.Seed,
	}
	return runEngine(ctx, rec, e, cell)
}

// firstEval marks the moment a run's first simulation starts and
// cancels the run there.
type firstEval struct {
	inner  parallel.Evaluator
	cancel context.CancelFunc
	once   sync.Once
	at     time.Time
}

// Eval implements parallel.Evaluator.
func (f *firstEval) Eval(x []float64) (float64, time.Duration) {
	f.once.Do(func() {
		f.at = time.Now()
		f.cancel()
	})
	return f.inner.Eval(x)
}

func (w *paperDay) probe(ctx context.Context, rec *recorder) (time.Duration, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	p, err := pbo.UPHESProblem(pbo.DefaultUPHESConfig())
	if err != nil {
		return 0, err
	}
	first := &firstEval{inner: p.Evaluator, cancel: cancel}
	p.Evaluator = first
	if rec.traced {
		_, err = w.traced(ctx, rec, p, rec.newID(), 0)
	} else {
		_, err = pbo.OptimizeContext(ctx, p, w.options(0))
	}
	if !pbo.Interrupted(err) && !errors.Is(err, context.Canceled) {
		return 0, fmt.Errorf("set-up probe: run was not cut at its first evaluation (err %v)", err)
	}
	return first.at.Sub(start), nil
}

// ---- fleets ----

// fleet is the uphes-fleet workload: mic-q-EGO, q=4, horizon 2, two
// members at a time; each unit is one Fleet.Run over a members × days
// grid. fleet-local solves in-process through LocalRunner; fleet-served
// runs async days through serve.FleetRunner against a loopback
// serve.Server with a persistent snapshot root and eviction on.
type fleet struct {
	cfg    config
	served bool
	roots  int // snapshot roots handed out under cfg.snapDir
}

// batch is the points per acquisition batch: q in sync mode, one in
// async mode.
func (w *fleet) batch() int {
	if w.served {
		return 1
	}
	return fleetQ
}

func (w *fleet) wantEvals() int {
	init := w.cfg.init
	if init == 0 {
		init = 16 * fleetQ
	}
	return init + w.cfg.cycles*w.batch()
}

func (w *fleet) fleetConfig(i int) scenario.FleetConfig {
	s := unitSeed(w.cfg.seed, i)
	mode := "sync"
	if w.served {
		mode = "async"
	}
	return scenario.FleetConfig{
		Gen:     scenario.GenConfig{Seed: s, Members: w.cfg.members},
		Days:    w.cfg.days,
		Horizon: fleetHorizon,
		Opt: scenario.OptConfig{
			Strategy:       fleetStrategy,
			Mode:           mode,
			BatchSize:      fleetQ,
			InitSamples:    w.cfg.init,
			MaxCycles:      w.cfg.cycles,
			OverheadFactor: overheadFactor,
			Seed:           s,
		},
		Parallel: drivers,
	}
}

// withRunners calls fn with a factory for unit i's production day
// runner: LocalRunner (tracedLocal in a traced pass), or a FleetRunner
// on a fresh fleet ID against a loopback server that lives for the
// duration of fn.
//
// The server's snapshot root is a fresh path that does not exist yet:
// like pboserver with -snapdir, the server creates it with its first
// session. So the set-up makes no filesystem call, whose latency on a
// disk-backed root wanders with the host (see README.md).
func (w *fleet) withRunners(ctx context.Context, rec *recorder, fn func(runner func(i int) scenario.DayRunner) error) (err error) {
	if !w.served {
		return fn(func(int) scenario.DayRunner {
			if rec.traced {
				return tracedLocal{rec: rec}
			}
			return scenario.LocalRunner{}
		})
	}
	w.roots++
	root := filepath.Join(w.cfg.snapDir, strconv.Itoa(w.roots))
	defer func() {
		if rerr := os.RemoveAll(root); err == nil {
			err = rerr
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &serve.Server{SnapRoot: root}
	var h http.Handler = srv.Handler()
	if rec.traced {
		h = &tracedHandler{next: h, srv: srv, rec: rec}
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	tr := &http.Transport{MaxConnsPerHost: drivers, MaxIdleConnsPerHost: drivers}
	client := &serve.Client{
		BaseURL:    "http://" + ln.Addr().String(),
		HTTPClient: &http.Client{Transport: &clientRecorder{next: tr, rec: rec}},
	}
	var serveErr, runErr error
	if err := parallel.ForEach(ctx, 2, 2, func(i int) {
		if i == 0 {
			if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				serveErr = err
			}
			return
		}
		runErr = fn(func(unit int) scenario.DayRunner {
			return &serve.FleetRunner{Client: client, FleetID: fmt.Sprintf("u%03d", unit), Evict: true}
		})
		if err := hs.Shutdown(ctx); err != nil && runErr == nil {
			runErr = err
		}
		tr.CloseIdleConnections()
	}); err != nil {
		return err
	}
	return errors.Join(runErr, serveErr)
}

func (w *fleet) pass(ctx context.Context, rec *recorder, body func(unitFunc) error) error {
	return w.withRunners(ctx, rec, func(runner func(int) scenario.DayRunner) error {
		return body(func(i int) (unitOut, error) {
			tr := &timedRunner{inner: runner(i), rec: rec, batch: w.batch()}
			rep, err := (&scenario.Fleet{Cfg: w.fleetConfig(i), Runner: tr}).Run(ctx)
			if err != nil {
				return unitOut{}, err
			}
			return unitOut{profit: rep.Mean, digest: digestReport(rep), violating: rep.ViolatingDays}, nil
		})
	})
}

// digestReport fingerprints a fleet round: every member's committed
// days and revenue.
func digestReport(rep *scenario.Report) uint64 {
	h := fnvOffset
	for _, m := range rep.PerMember {
		h = fnvMix(h, math.Float64bits(m.Revenue))
		for _, d := range m.Days {
			h = fnvMix(h, math.Float64bits(d.Profit))
			h = fnvMix(h, math.Float64bits(d.BestY))
			h = fnvMix(h, uint64(d.Evals))
			for _, x := range d.X {
				h = fnvMix(h, math.Float64bits(x))
			}
		}
	}
	return h
}

// errProbe stops a set-up probe at its first day.
var errProbe = errors.New("set-up probe reached its first day")

// probeRunner marks the first RunDay call and refuses the day.
type probeRunner struct {
	once sync.Once
	at   time.Time
}

// RunDay implements scenario.DayRunner.
func (p *probeRunner) RunDay(context.Context, *scenario.DaySpec, scenario.OptConfig) (*core.Result, error) {
	p.once.Do(func() { p.at = time.Now() })
	return nil, errProbe
}

func (w *fleet) probe(ctx context.Context, rec *recorder) (time.Duration, error) {
	start := time.Now()
	pr := &probeRunner{}
	err := w.withRunners(ctx, rec, func(func(int) scenario.DayRunner) error {
		_, err := (&scenario.Fleet{Cfg: w.fleetConfig(0), Runner: pr}).Run(ctx)
		if !errors.Is(err, errProbe) {
			return fmt.Errorf("set-up probe: fleet did not stop at its first day (err %v)", err)
		}
		return nil
	})
	return pr.at.Sub(start), err
}
