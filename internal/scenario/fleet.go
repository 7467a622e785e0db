package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
)

// FleetConfig describes a whole ensemble run: the scenario ensemble, the
// rolling-horizon geometry, the per-day optimizer configuration and the
// member-level parallelism.
type FleetConfig struct {
	// Gen is the ensemble (Gen.Members sessions run).
	Gen GenConfig `json:"gen"`
	// Days is the number of operational days rolled per member.
	Days int `json:"days"`
	// Horizon is the look-ahead window of each day's optimization
	// (default 1).
	Horizon int `json:"horizon"`
	// Opt configures each day's BO run (Opt.Seed is the fleet master
	// seed).
	Opt OptConfig `json:"opt"`
	// SimLatency is the simulated per-evaluation latency (default 10s).
	SimLatency time.Duration `json:"sim_latency_ns,omitempty"`
	// Parallel caps concurrently running members (default 1: serial).
	// Members are independent runs, so any level of parallelism yields
	// the same report.
	Parallel int `json:"parallel,omitempty"`
}

func (c FleetConfig) withDefaults() FleetConfig {
	c.Gen = c.Gen.withDefaults()
	c.Opt = c.Opt.withDefaults()
	if c.Days <= 0 {
		c.Days = 1
	}
	if c.Horizon <= 0 {
		c.Horizon = 1
	}
	if c.Parallel <= 0 {
		c.Parallel = 1
	}
	return c
}

// Fleet runs one rolling-horizon session per ensemble member and
// aggregates the revenue distribution. The runner decides where the
// optimization happens: in-process (LocalRunner) or on a pboserver
// (serve.FleetRunner), which is what lets a year-long fleet survive
// process restarts — the fleet re-derives every cell deterministically
// and the server carries the in-flight state.
type Fleet struct {
	Cfg    FleetConfig
	Runner DayRunner
}

// Percentiles summarizes the member revenue distribution with linearly
// interpolated percentiles.
type Percentiles struct {
	P5  float64 `json:"p5"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	P95 float64 `json:"p95"`
}

// Report is a fleet run's aggregate outcome.
type Report struct {
	Members int `json:"members"`
	Days    int `json:"days"`
	Horizon int `json:"horizon"`
	// Revenues holds per-member total revenue in member order.
	Revenues []float64 `json:"revenues"`
	// Mean is the ensemble-average revenue.
	Mean float64 `json:"mean"`
	// Pct is the revenue distribution summary.
	Pct Percentiles `json:"percentiles"`
	// ViolatingDays and Fallbacks sum over all members.
	ViolatingDays int `json:"violating_days"`
	Fallbacks     int `json:"fallbacks"`
	// PerMember carries the full day-by-day trajectories.
	PerMember []*MemberResult `json:"per_member"`
}

// percentile returns the p-quantile (p in [0, 100]) of sorted values by
// linear interpolation between order statistics.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// Run executes the fleet: members run under the configured parallelism
// cap through parallel.ForEach, which keeps that many members in flight
// on any core count (a served member mostly waits on HTTP), then the
// report aggregates in member order — the report is bit-identical
// regardless of Parallel. While its members run, Run holds one helper of
// the process-wide budget for every running member slot but one (the
// first is the caller's share), so the fits and acquisitions inside
// in-process members borrow only what the members leave free and run
// inline when they fill the host. A slot gives its share back when it
// has no member left, so the members still running can use the core it
// freed. The shares are held here, not in LocalRunner, so every
// DayRunner's members are counted.
func (f *Fleet) Run(ctx context.Context) (*Report, error) {
	cfg := f.Cfg.withDefaults()
	if f.Runner == nil {
		f.Runner = LocalRunner{}
	}
	n := cfg.Gen.Members
	results := make([]*MemberResult, n)
	errs := make([]error, n)
	slots := min(cfg.Parallel, n)
	shares := make([]func(), max(slots-1, 0))
	for i := range shares {
		shares[i] = parallel.Reserve(1)
	}
	var released atomic.Int32
	giveBack := func() {
		if i := int(released.Add(1)) - 1; i < len(shares) {
			shares[i]()
		}
	}
	err := parallel.ForEach(ctx, cfg.Parallel, n, func(m int) {
		results[m], errs[m] = RunMember(ctx, f.Runner, cfg.Gen, cfg.Opt,
			m, cfg.Days, cfg.Horizon, cfg.SimLatency)
		if m+slots >= n {
			giveBack() // ForEach's slot m%slots has no member left
		}
	})
	for range shares {
		giveBack() // shares a cancelled slot never gave back
	}
	if err != nil {
		return nil, err
	}
	for m, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario: fleet member %d: %w", m, err)
		}
	}

	rep := &Report{
		Members:   n,
		Days:      cfg.Days,
		Horizon:   cfg.Horizon,
		Revenues:  make([]float64, n),
		PerMember: results,
	}
	for m, mr := range results {
		rep.Revenues[m] = mr.Revenue
		rep.Mean += mr.Revenue
		rep.ViolatingDays += mr.ViolatingDays
		rep.Fallbacks += mr.Fallbacks
	}
	rep.Mean /= float64(n)
	sorted := append([]float64(nil), rep.Revenues...)
	sort.Float64s(sorted)
	rep.Pct = Percentiles{
		P5:  percentile(sorted, 5),
		P25: percentile(sorted, 25),
		P50: percentile(sorted, 50),
		P75: percentile(sorted, 75),
		P95: percentile(sorted, 95),
	}
	return rep, nil
}

// WriteJSON writes the full report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders the human-readable revenue-distribution table the
// uphes-fleet CLI prints.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d members × %d days (horizon %d)\n", r.Members, r.Days, r.Horizon)
	fmt.Fprintf(&b, "revenue [EUR]:  mean %12.2f\n", r.Mean)
	fmt.Fprintf(&b, "  P5  %12.2f\n", r.Pct.P5)
	fmt.Fprintf(&b, "  P25 %12.2f\n", r.Pct.P25)
	fmt.Fprintf(&b, "  P50 %12.2f\n", r.Pct.P50)
	fmt.Fprintf(&b, "  P75 %12.2f\n", r.Pct.P75)
	fmt.Fprintf(&b, "  P95 %12.2f\n", r.Pct.P95)
	fmt.Fprintf(&b, "violating days: %d   fallback days: %d\n", r.ViolatingDays, r.Fallbacks)
	return b.String()
}
