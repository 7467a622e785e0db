package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/uphes"
)

// fleetServer starts an in-process pboserver with a deterministic clock
// and snapshot persistence, returning a client bound to it.
func fleetServer(t *testing.T) *Client {
	t.Helper()
	srv := &Server{SnapRoot: t.TempDir(), Now: fakeNow()}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &Client{BaseURL: ts.URL}
}

// fleetTestCfg is the shared small-fleet workload: asynchronous mode,
// two in-flight slots, a couple of BO cycles per day.
func fleetTestCfg(members, days, horizon int, seed uint64) scenario.FleetConfig {
	return scenario.FleetConfig{
		Gen:     scenario.GenConfig{Seed: seed, Members: members},
		Days:    days,
		Horizon: horizon,
		Opt: scenario.OptConfig{
			Strategy:    "mic-q-EGO",
			Mode:        "async",
			BatchSize:   2,
			InitSamples: 4,
			MaxCycles:   2,
			Model:       core.ModelConfig{MaxIter: 5, Restarts: 1},
			Seed:        seed,
		},
		SimLatency: 10 * time.Second,
		Parallel:   members,
	}
}

func runFleet(t *testing.T, cfg scenario.FleetConfig, r scenario.DayRunner) *scenario.Report {
	t.Helper()
	rep, err := (&scenario.Fleet{Cfg: cfg, Runner: r}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// sameFleetReport asserts bit-identical fleet outcomes: revenues,
// committed schedules, realized profits and carried reservoir states.
func sameFleetReport(t *testing.T, label string, a, b *scenario.Report) {
	t.Helper()
	if len(a.PerMember) != len(b.PerMember) {
		t.Fatalf("%s: member count %d vs %d", label, len(a.PerMember), len(b.PerMember))
	}
	for m := range a.PerMember {
		am, bm := a.PerMember[m], b.PerMember[m]
		if !fp.Exact(am.Revenue, bm.Revenue) {
			t.Fatalf("%s: member %d revenue %v vs %v", label, m, am.Revenue, bm.Revenue)
		}
		if am.EndState != bm.EndState {
			t.Fatalf("%s: member %d end state %+v vs %+v", label, m, am.EndState, bm.EndState)
		}
		if len(am.Days) != len(bm.Days) {
			t.Fatalf("%s: member %d day count differs", label, m)
		}
		for d := range am.Days {
			ad, bd := am.Days[d], bm.Days[d]
			if !fp.Exact(ad.Profit, bd.Profit) || !fp.Exact(ad.BestY, bd.BestY) {
				t.Fatalf("%s: member %d day %d profit %v/%v vs %v/%v",
					label, m, d, ad.Profit, ad.BestY, bd.Profit, bd.BestY)
			}
			for j := range ad.X {
				if !fp.Exact(ad.X[j], bd.X[j]) {
					t.Fatalf("%s: member %d day %d schedule differs at %d", label, m, d, j)
				}
			}
		}
	}
}

// prefixFleetReport asserts that the first len(a.Days) days of every
// member in b match a exactly — a shorter fleet run is a prefix of a
// longer one because each cell is a pure function of (seed, member, day,
// carried state).
func prefixFleetReport(t *testing.T, label string, a, b *scenario.Report) {
	t.Helper()
	for m := range a.PerMember {
		am, bm := a.PerMember[m], b.PerMember[m]
		for d := range am.Days {
			ad, bd := am.Days[d], bm.Days[d]
			if !fp.Exact(ad.Profit, bd.Profit) {
				t.Fatalf("%s: member %d day %d profit %v vs %v", label, m, d, ad.Profit, bd.Profit)
			}
			for j := range ad.X {
				if !fp.Exact(ad.X[j], bd.X[j]) {
					t.Fatalf("%s: member %d day %d schedule differs at %d", label, m, d, j)
				}
			}
		}
	}
}

// TestFleetKillAndResume (registered in scripts/check.sh's -race run)
// simulates a fleet process dying mid-day — after asking work out of a
// live session and telling only part of it back — and verifies that
// re-running the same fleet command against the same server recovers the
// in-flight batch, finishes the year and produces a report bit-identical
// to an uninterrupted fleet on a fresh server. A third run after
// completion exercises the snapshot-resume path end to end.
func TestFleetKillAndResume(t *testing.T) {
	cfg := fleetTestCfg(2, 2, 1, 21)
	ctx := context.Background()

	// Baseline: uninterrupted fleet on its own server.
	baseline := runFleet(t, cfg, &FleetRunner{Client: fleetServer(t), FleetID: "kr", Evict: true})

	// Crash site: create member 0 / day 0 by hand, pull two single-point
	// asks, tell only the first, then abandon the session — the state a
	// killed fleet leaves behind between ask and tell.
	c := fleetServer(t)
	f := &FleetRunner{Client: c, FleetID: "kr", Evict: true}
	base := uphes.DefaultConfig()
	spec := &scenario.DaySpec{
		Gen:          cfg.Gen,
		Member:       0,
		Day:          0,
		Horizon:      cfg.Horizon,
		Start:        uphes.DefaultState(&base.Plant),
		SimLatencyNS: cfg.SimLatency,
	}
	if _, err := f.attach(ctx, spec, cfg.Opt); err != nil {
		t.Fatal(err)
	}
	id := f.SessionID(0, 0)
	_, cons, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b1, done, err := c.Ask(ctx, id)
	if err != nil || done {
		t.Fatalf("first ask: done=%v err=%v", done, err)
	}
	if _, _, err := c.Ask(ctx, id); err != nil {
		t.Fatalf("second ask: %v", err)
	}
	y, cost := cons.Eval(b1.Points[0])
	if _, err := c.Tell(ctx, id, []session.EvalResult{{BatchID: b1.ID, Member: 0, Y: y, CostNS: int64(cost)}}); err != nil {
		t.Fatal(err)
	}

	// "Restart" the fleet: the full run must attach to the half-driven
	// session, evaluate the unreceived point via the pending-work
	// receipts, and converge to the baseline bit-exactly.
	resumed := runFleet(t, cfg, f)
	sameFleetReport(t, "kill-and-resume", baseline, resumed)

	// Run once more: every session is evicted but persisted, so this
	// exercises snapshot resume (or deterministic re-create) per cell.
	again := runFleet(t, cfg, f)
	sameFleetReport(t, "post-completion rerun", baseline, again)
}

// TestFleetAcceptanceYear is the ISSUE's acceptance run: a seeded
// 32-member, 30-day rolling-horizon fleet against an in-process pboserver
// in asynchronous mode. It must be bit-identical on re-run with the same
// seed, survive a mid-run export/import migration to a second server with
// identical final per-scenario results, and commit zero
// constraint-violating days.
func TestFleetAcceptanceYear(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance fleet run skipped in -short mode")
	}
	const members, days = 32, 30
	ctx := context.Background()
	cfg := fleetTestCfg(members, days, 1, 42)
	cfg.Opt.MaxCycles = 1
	cfg.Parallel = 8

	// Uninterrupted reference year on its own server.
	ref := fleetServer(t)
	want := runFleet(t, cfg, &FleetRunner{Client: ref, FleetID: "year", Evict: false})
	if want.ViolatingDays != 0 {
		t.Fatalf("reference year committed %d violating days, want 0", want.ViolatingDays)
	}
	if want.Fallbacks > members*days/2 {
		t.Fatalf("reference year fell back to idle on %d of %d cells — constraint weighting ineffective", want.Fallbacks, members*days)
	}

	// Re-run against the same server: every cell resumes (live or from
	// snapshot) to the identical result.
	again := runFleet(t, cfg, &FleetRunner{Client: ref, FleetID: "year", Evict: false})
	sameFleetReport(t, "same-server rerun", want, again)

	// Mid-run migration: a fleet runs half the year on server A, its
	// latest sessions migrate to server B, and the fleet finishes the
	// year on B — days before the migration point re-derive
	// deterministically, the migrated day continues from imported state.
	srvA := fleetServer(t)
	half := cfg
	half.Days = days / 2
	gotHalf := runFleet(t, half, &FleetRunner{Client: srvA, FleetID: "year", Evict: false})
	prefixFleetReport(t, "half-year prefix", gotHalf, want)

	srvB := fleetServer(t)
	fB := &FleetRunner{Client: srvB, FleetID: "year", Evict: false}
	for m := 0; m < members; m++ {
		id := fB.SessionID(m, half.Days-1)
		if _, err := srvA.Migrate(ctx, id, srvB); err != nil {
			t.Fatalf("migrate %s: %v", id, err)
		}
	}
	got := runFleet(t, cfg, fB)
	sameFleetReport(t, "migrated year", want, got)
}

// requestCounter counts the tell requests and the long-poll asks that
// pass through it to the default transport.
type requestCounter struct {
	tells, waits atomic.Int64
}

func (c *requestCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	switch {
	case req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/tell"):
		c.tells.Add(1)
	case req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/ask"):
		c.waits.Add(1)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// askRound asks one round as FleetRunner.drive does: one long-poll
// batch, then every further batch until the session answers "not
// ready". The bool reports a session with nothing left to ask.
func askRound(ctx context.Context, c *Client, id string) ([]*core.Batch, bool, error) {
	for {
		b, done, err := c.AskWait(ctx, id, time.Minute)
		if errors.Is(err, ErrNotReady) {
			continue
		}
		if done || err != nil {
			return nil, done, err
		}
		round := []*core.Batch{b}
		for {
			nb, _, err := c.Ask(ctx, id)
			if errors.Is(err, ErrNotReady) {
				return round, false, nil
			}
			if err != nil {
				return nil, false, err
			}
			round = append(round, nb)
		}
	}
}

// drivePerBatch is FleetRunner.drive with one tell per batch of each
// round instead of one per round; it returns the number of batches told.
func drivePerBatch(ctx context.Context, c *Client, id string, cons *scenario.Constrained) (int, error) {
	batches := 0
	for {
		round, done, err := askRound(ctx, c, id)
		if done || err != nil {
			return batches, err
		}
		for _, rb := range round {
			if _, err := c.Tell(ctx, id, roundResults([]*core.Batch{rb}, cons)); err != nil {
				return batches, err
			}
			batches++
		}
	}
}

// sameTrace asserts that two results hold the same evaluations, bit for
// bit, in the same order.
func sameTrace(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if len(got.X) != len(want.X) || len(got.Y) != len(want.Y) {
		t.Fatalf("%s: %d points, %d values; want %d, %d", label, len(got.X), len(got.Y), len(want.X), len(want.Y))
	}
	for i := range want.X {
		if math.Float64bits(got.Y[i]) != math.Float64bits(want.Y[i]) {
			t.Fatalf("%s: Y[%d] = %v, want %v", label, i, got.Y[i], want.Y[i])
		}
		for j := range want.X[i] {
			if math.Float64bits(got.X[i][j]) != math.Float64bits(want.X[i][j]) {
				t.Fatalf("%s: X[%d][%d] = %v, want %v", label, i, j, got.X[i][j], want.X[i][j])
			}
		}
	}
}

// TestFleetTellPerRoundMatchesPerBatch drives one served asynchronous day
// twice, telling each batch of a round on its own and then, as RunDay
// does, the whole round in one request: every X and Y must keep its bits,
// and RunDay must send one tell per round (one per long-poll ask), fewer
// than one per batch.
func TestFleetTellPerRoundMatchesPerBatch(t *testing.T) {
	ctx := context.Background()
	cfg := fleetTestCfg(1, 1, 1, 31)
	cfg.Opt.BatchSize = 3
	cfg.Opt.MaxCycles = 4
	base := uphes.DefaultConfig()
	spec := &scenario.DaySpec{
		Gen:          cfg.Gen,
		Horizon:      cfg.Horizon,
		Start:        uphes.DefaultState(&base.Plant),
		SimLatencyNS: cfg.SimLatency,
	}
	served := func() (*FleetRunner, *requestCounter) {
		c := fleetServer(t)
		counter := &requestCounter{}
		c.HTTPClient = &http.Client{Transport: counter}
		return &FleetRunner{Client: c, FleetID: "tells"}, counter
	}

	perBatch, perBatchCount := served()
	if _, err := perBatch.attach(ctx, spec, cfg.Opt); err != nil {
		t.Fatal(err)
	}
	id := perBatch.SessionID(spec.Member, spec.Day)
	_, cons, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	batches, err := drivePerBatch(ctx, perBatch.Client, id, cons)
	if err != nil {
		t.Fatal(err)
	}
	want, err := perBatch.Client.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}

	perRound, perRoundCount := served()
	got, err := perRound.RunDay(ctx, spec, cfg.Opt)
	if err != nil {
		t.Fatal(err)
	}

	sameTrace(t, "per round against per batch", got, want)
	if n := perBatchCount.tells.Load(); n != int64(batches) {
		t.Fatalf("per-batch driver sent %d tells for %d batches", n, batches)
	}
	rounds, tells := perRoundCount.waits.Load(), perRoundCount.tells.Load()
	// The last long-poll ask of a day answers done and starts no round.
	if tells != rounds-1 {
		t.Errorf("RunDay sent %d tells over %d long-poll asks, want one per round", tells, rounds)
	}
	if tells >= int64(batches) {
		t.Errorf("RunDay sent %d tells for %d batches, want fewer", tells, batches)
	}
	t.Logf("%d evaluations: %d batches told one by one, %d tells one per round", len(want.Y), batches, tells)
}

// TestFleetLocalMatchesServed: one fleet reports the same bits in process
// (scenario.LocalRunner, whose Engine.Run asks in rounds) and through
// FleetRunner against a pboserver, in both modes.
func TestFleetLocalMatchesServed(t *testing.T) {
	for _, mode := range []string{"sync", "async"} {
		t.Run(mode, func(t *testing.T) {
			cfg := fleetTestCfg(2, 2, 1, 23)
			cfg.Opt.Mode = mode
			cfg.Opt.MaxCycles = 3
			local := runFleet(t, cfg, scenario.LocalRunner{})
			served := runFleet(t, cfg, &FleetRunner{Client: fleetServer(t), FleetID: "lm", Evict: true})
			sameFleetReport(t, mode+" in process against served", local, served)
		})
	}
}

// TestFleetKillAfterEveryRound: a served day whose fleet dies after any
// round's asks — round k asked and never told — and is re-run finishes
// with the uninterrupted day's X and Y, in both modes. Three cycles at
// q = 2 end the asynchronous day on a one-point round, where the cycles
// are spent while the round is out.
func TestFleetKillAfterEveryRound(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []string{"sync", "async"} {
		t.Run(mode, func(t *testing.T) {
			cfg := fleetTestCfg(1, 1, 1, 21)
			cfg.Opt.Mode = mode
			cfg.Opt.MaxCycles = 3
			base := uphes.DefaultConfig()
			spec := &scenario.DaySpec{
				Gen:          cfg.Gen,
				Horizon:      cfg.Horizon,
				Start:        uphes.DefaultState(&base.Plant),
				SimLatencyNS: cfg.SimLatency,
			}
			_, cons, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := (&FleetRunner{Client: fleetServer(t), FleetID: "kill"}).RunDay(ctx, spec, cfg.Opt)
			if err != nil {
				t.Fatal(err)
			}
			rounds := 0
			for k := 1; ; k++ {
				f := &FleetRunner{Client: fleetServer(t), FleetID: "kill"}
				if _, err := f.attach(ctx, spec, cfg.Opt); err != nil {
					t.Fatal(err)
				}
				id := f.SessionID(spec.Member, spec.Day)
				done := false
				for r := 1; r <= k && !done; r++ {
					var round []*core.Batch
					round, done, err = askRound(ctx, f.Client, id)
					if err != nil {
						t.Fatal(err)
					}
					if r < k && !done {
						if _, err := f.Client.Tell(ctx, id, roundResults(round, cons)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if done {
					break
				}
				rounds = k
				got, err := f.RunDay(ctx, spec, cfg.Opt)
				if err != nil {
					t.Fatal(err)
				}
				sameTrace(t, fmt.Sprintf("killed after round %d's asks", k), got, want)
			}
			if rounds != 4 {
				t.Fatalf("the day ran %d rounds, want 4", rounds)
			}
			t.Logf("%d evaluations over %d rounds, each killed and re-run", len(want.Y), rounds)
		})
	}
}
