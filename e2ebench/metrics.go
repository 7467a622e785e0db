package main

import (
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with the sample count behind it.
type metric struct {
	name, unit string
	value      float64
	n          int
	// ok is false when the workload has no such quantity, or when a
	// percentile lacks ten samples beyond it; the value is then not
	// reported.
	ok bool
}

// The metric sets of BENCHMARK.json: the JSON line of an untraced run
// carries gated, that of a traced run layers. The remaining end-to-end
// metrics print with their sample counts but are not gated: each is
// either missing on some workload or cannot be steady across seeds (see
// README.md).
var (
	gated  = []string{"setup_s", "days_per_min", "ask_p50_ms", "peak_rss_mb", "success_frac"}
	layers = []string{
		"scenario.cell_busy_s", "scenario.concurrency", "scenario.build_ms",
		"core.asks", "core.ask_self_ms", "core.tell_busy_s", "core.fallback_frac",
		"gp.fit_s", "gp.fit_p50_ms", "gp.fit_share", "gp.n_max",
		"strategy.acq_s", "strategy.acq_p50_ms",
		"uphes.evals", "uphes.eval_busy_s",
		"parallel.batch_busy_s", "parallel.utilization",
		"serve.requests", "serve.wasted_frac", "serve.body_mb", "serve.handler_busy_s", "serve.wire_s", "serve.design_ask_p50_ms",
		"session.snapshots", "session.snapshot_mb", "session.self_s",
		"runtime.cpu_s", "runtime.alloc_mb", "runtime.gc_cycles", "runtime.sched_wait_p90_us",
	}
)

const mib = 1 << 20

// percentile is the p-th percentile of xs, linearly interpolated between
// order statistics. ok holds only when at least ten samples lie beyond
// it, so a median needs 20 samples, a p90 100 and a p99 1000.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || float64(n)*(100-p) < 1000 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return s[n-1], true
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i]), true
}

// pct reports a percentile of samples scaled by scale. A layer that did
// no work reports 0 from no samples; too few samples are not reported.
func pct(name, unit string, xs []float64, p, scale float64) metric {
	if len(xs) == 0 {
		return metric{name: name, unit: unit, ok: true}
	}
	v, ok := percentile(xs, p)
	return metric{name: name, unit: unit, value: v * scale, n: len(xs), ok: ok}
}

func val(name, unit string, v float64, n int) metric {
	return metric{name: name, unit: unit, value: v, n: n, ok: true}
}

func na(name, unit string) metric { return metric{name: name, unit: unit} }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// pass is what one measured pass produced.
type pass struct {
	units   []unitOut
	elapsed time.Duration // from the first unit's start to the last unit's end, set-up bursts excluded
	probing time.Duration // spent in set-up bursts
	setup   []float64     // set-up times in seconds, warm-up excluded
	spans   []span
	days    []dayRec
	err     error // the failure that ended the pass early
}

func (p *pass) named(name string) []*span {
	var out []*span
	for i := range p.spans {
		if p.spans[i].Name == name {
			out = append(out, &p.spans[i])
		}
	}
	return out
}

func durations(ss []*span, scale float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / 1e9 * scale
	}
	return out
}

// asks are the client round trips of served asks that returned a batch
// of the given kind: acquisition (cycle ≥ 1) or initial design (cycle 0).
func (p *pass) servedAsks(design bool) []*span {
	var out []*span
	for _, s := range p.named("serve.client") {
		if (s.Op == "ask" || s.Op == "askwait") && s.Status == http.StatusOK && s.Cycle >= 0 && (s.Cycle == 0) == design {
			out = append(out, s)
		}
	}
	return out
}

// modelTimes returns every acquisition cycle's fit and acquisition
// times from the days' CycleRecords, in seconds.
func (p *pass) modelTimes() (fit, acq []float64) {
	for _, d := range p.days {
		fit = append(fit, d.fit...)
		acq = append(acq, d.acq...)
	}
	return fit, acq
}

// requests counts the served requests: completed (2xx), protocol-
// expected refusals, and failures (transport errors and every other
// status).
func (p *pass) requests() (all, waste, failed int) {
	for _, s := range p.named("serve.client") {
		all++
		switch {
		case wasted(s):
			waste++
		case s.Status < 200 || s.Status > 299:
			failed++
		}
	}
	return all, waste, failed
}

// ops counts the operations behind success_frac: day cells, plus HTTP
// requests on fleet-served.
func (p *pass) ops() (attempted, failed int) {
	for _, d := range p.days {
		attempted++
		if d.err != nil {
			failed++
		}
	}
	all, _, bad := p.requests()
	return attempted + all, failed + bad
}

// endToEnd computes the end-to-end metrics of a pass.
func endToEnd(workload string, p *pass, profitUnits int, rssMB float64) []metric {
	served := workload == "fleet-served"
	fleets := workload != "paper-day"
	okDays := 0
	for _, d := range p.days {
		if d.err == nil {
			okDays++
		}
	}
	var askMS []float64
	if served {
		askMS = durations(p.servedAsks(false), 1e3)
	} else {
		fit, acq := p.modelTimes()
		for i := range fit {
			askMS = append(askMS, (fit[i]+acq[i])*1e3)
		}
	}
	var profit []float64
	for i := 0; i < len(p.units) && i < profitUnits; i++ {
		profit = append(profit, p.units[i].profit)
	}
	attempted, failed := p.ops()

	ms := []metric{
		pct("setup_s", "s", p.setup, 50, 1),
		val("days_per_min", "days/min", float64(okDays)/p.elapsed.Minutes(), okDays),
		na("cell_p50_s", "s"),
		pct("ask_p50_ms", "ms", askMS, 50, 1),
		pct("ask_p90_ms", "ms", askMS, 90, 1),
		na("tell_p50_ms", "ms"),
		na("tell_p99_ms", "ms"),
		val("profit_eur", "EUR", sum(profit)/float64(max(1, len(profit))), len(profit)),
		val("peak_rss_mb", "MB", rssMB, 1),
		val("success_frac", "fraction", ratio(float64(attempted-failed), float64(attempted)), attempted),
	}
	if fleets {
		ms[2] = pct("cell_p50_s", "s", durations(p.named("scenario.day"), 1), 50, 1)
	}
	if served {
		var tells []*span
		for _, s := range p.named("serve.client") {
			if s.Op == "tell" {
				tells = append(tells, s)
			}
		}
		tellMS := durations(tells, 1e3)
		ms[5] = pct("tell_p50_ms", "ms", tellMS, 50, 1)
		ms[6] = pct("tell_p99_ms", "ms", tellMS, 99, 1)
	}
	return ms
}

// addModelSpans completes a traced pass's span tree. The fit and the
// acquisition run inside an ask, out of the benchmark's reach, so every
// acquisition ask — the core.ask span in process, the ask's server
// handler span on fleet-served — gets them as children, sized from its
// day's CycleRecords and laid end to end from the ask's start. Handler
// spans first take their client span's day and batch cycle.
func addModelSpans(p *pass) {
	byID := map[int64]*span{}
	var next int64
	for i := range p.spans {
		byID[p.spans[i].ID] = &p.spans[i]
		next = max(next, p.spans[i].ID+1)
	}
	days := map[int64]*dayRec{}
	for i := range p.days {
		days[p.days[i].id] = &p.days[i]
	}
	var model []span
	for i := range p.spans {
		a := &p.spans[i]
		if c, ok := byID[a.Parent]; ok && a.Name == "serve.handler" {
			a.Cell, a.Cycle = c.Cell, c.Cycle
		} else if a.Name != "core.ask" {
			continue
		}
		d, ok := days[a.Cell]
		if !ok || a.Cycle < 1 || a.Cycle > len(d.fit) {
			continue
		}
		fitEnd := min(a.Start+int64(d.fit[a.Cycle-1]*1e9), a.End)
		acqEnd := min(fitEnd+int64(d.acq[a.Cycle-1]*1e9), a.End)
		model = append(model,
			span{ID: next, Parent: a.ID, Cell: a.Cell, Name: "gp.fit", Cycle: a.Cycle, N: a.N, Start: a.Start, End: fitEnd},
			span{ID: next + 1, Parent: a.ID, Cell: a.Cell, Name: "strategy.acq", Cycle: a.Cycle, Start: fitEnd, End: acqEnd})
		next += 2
	}
	p.spans = append(p.spans, model...)
}

// selfTimes maps every span ID to its self time: its duration minus the
// part of it its children cover.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// runtimeStats is a reading of the process's CPU time and runtime
// counters.
type runtimeStats struct {
	cpu    time.Duration
	alloc  uint64
	gcs    uint64
	sched  *metrics.Float64Histogram
	maxRSS float64 // MB
}

func readRuntime() runtimeStats {
	var ru syscall.Rusage
	var st runtimeStats
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		st.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		st.maxRSS = float64(ru.Maxrss) * 1024 / mib
	}
	ss := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/latencies:seconds"}}
	metrics.Read(ss)
	st.alloc = ss[0].Value.Uint64()
	st.gcs = ss[1].Value.Uint64()
	st.sched = ss[2].Value.Float64Histogram()
	return st
}

// schedP90 is the p90 of the goroutine scheduling latencies recorded
// between two readings, as the upper edge of its histogram bucket.
func schedP90(a, b runtimeStats) (float64, int) {
	var total uint64
	counts := make([]uint64, len(b.sched.Counts))
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total < 100 {
		return 0, int(total)
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if float64(cum) >= 0.9*float64(total) {
			edge := b.sched.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.sched.Buckets[i]
			}
			return edge, int(total)
		}
	}
	return 0, int(total)
}

// layerMetrics computes the per-layer split of a traced pass; rt0 and
// rt1 bracket it.
func layerMetrics(workload string, p *pass, rt0, rt1 runtimeStats) []metric {
	served := workload == "fleet-served"
	addModelSpans(p)
	self := selfTimes(p.spans)
	secs := func(ss []*span) float64 { return sum(durations(ss, 1)) }
	selfSecs := func(ss []*span) float64 {
		var t int64
		for _, s := range ss {
			t += self[s.ID]
		}
		return float64(t) / 1e9
	}

	days := p.named("scenario.day")
	handlers := p.named("serve.handler")
	clients := p.named("serve.client")
	fit, acq := p.modelTimes()

	// Acquisition asks: core.ask spans in process; on fleet-served the
	// client round trip, whose handler carries the fit and acquisition.
	var asks, askHandlers, tellBusy []*span
	if served {
		asks = p.servedAsks(false)
		isAsk := map[int64]bool{}
		for _, a := range asks {
			isAsk[a.ID] = true
		}
		ops := map[int64]string{}
		for _, c := range clients {
			ops[c.ID] = c.Op
		}
		for _, h := range handlers {
			if isAsk[h.Parent] {
				askHandlers = append(askHandlers, h)
			}
			if ops[h.Parent] == "tell" {
				tellBusy = append(tellBusy, h)
			}
		}
	} else {
		for _, a := range p.named("core.ask") {
			if a.Cycle >= 1 {
				asks = append(asks, a)
			}
		}
		askHandlers = asks
		tellBusy = p.named("core.tell")
	}
	var askSelfMS []float64
	for _, a := range askHandlers {
		askSelfMS = append(askSelfMS, float64(self[a.ID])/1e6)
	}

	cycles, falls, nMax := 0, 0, 0
	for _, d := range p.days {
		cycles += d.cycles
		falls += d.falls
		nMax = max(nMax, d.nMax)
	}

	evals := p.named("uphes.eval")
	nEvals, evalBusy := len(evals), secs(evals)
	if served {
		nEvals = 0
		for _, d := range p.days {
			nEvals += d.evals
		}
		// FleetRunner evaluates inside RunDay between round trips: the
		// day's self time is that client-side work.
		evalBusy = selfSecs(days)
	}
	batches := p.named("parallel.batch")
	var capacity float64
	for _, b := range batches {
		capacity += float64(b.dur()) / 1e9 * float64(min(b.N, runtime.GOMAXPROCS(0)))
	}

	reqs, waste, _ := p.requests()
	var body int64
	var wire float64
	linked := map[int64]bool{}
	for _, h := range handlers {
		linked[h.Parent] = true
	}
	for _, c := range clients {
		body += c.Bytes
		if linked[c.ID] {
			wire += float64(self[c.ID]) / 1e9
		}
	}
	var snaps, snapBytes int64
	for _, h := range handlers {
		snaps += h.Snapshots
		snapBytes += h.SnapBytes
	}
	schedUS, schedN := schedP90(rt0, rt1)
	cellBusy := secs(days)

	return []metric{
		val("scenario.cell_busy_s", "s", cellBusy, len(days)),
		val("scenario.concurrency", "ratio", ratio(cellBusy, p.elapsed.Seconds()), len(days)),
		pct("scenario.build_ms", "ms", durations(p.named("scenario.build"), 1), 50, 1e3),
		val("core.asks", "count", float64(len(asks)), len(asks)),
		pct("core.ask_self_ms", "ms", askSelfMS, 50, 1),
		val("core.tell_busy_s", "s", secs(tellBusy), len(tellBusy)),
		val("core.fallback_frac", "fraction", ratio(float64(falls), float64(cycles)), cycles),
		val("gp.fit_s", "s", sum(fit), len(fit)),
		pct("gp.fit_p50_ms", "ms", fit, 50, 1e3),
		pct("gp.fit_p90_ms", "ms", fit, 90, 1e3),
		val("gp.fit_share", "fraction", ratio(sum(fit), secs(asks)), len(asks)),
		val("gp.n_max", "count", float64(nMax), len(p.days)),
		val("strategy.acq_s", "s", sum(acq), len(acq)),
		pct("strategy.acq_p50_ms", "ms", acq, 50, 1e3),
		val("uphes.evals", "count", float64(nEvals), nEvals),
		val("uphes.eval_busy_s", "s", evalBusy, nEvals),
		val("parallel.batch_busy_s", "s", secs(batches), len(batches)),
		val("parallel.utilization", "fraction", ratio(secs(evals), capacity), len(batches)),
		val("serve.requests", "count", float64(reqs), reqs),
		val("serve.wasted_frac", "fraction", ratio(float64(waste), float64(reqs)), reqs),
		val("serve.body_mb", "MB", float64(body)/mib, reqs),
		val("serve.handler_busy_s", "s", secs(handlers), len(handlers)),
		val("serve.wire_s", "s", wire, len(handlers)),
		pct("serve.design_ask_p50_ms", "ms", durations(p.servedAsks(true), 1), 50, 1e3),
		val("session.snapshots", "count", float64(snaps), int(snaps)),
		val("session.snapshot_mb", "MB", float64(snapBytes)/mib, int(snaps)),
		val("session.self_s", "s", selfSecs(handlers), len(handlers)),
		val("runtime.cpu_s", "s", (rt1.cpu - rt0.cpu).Seconds(), 1),
		val("runtime.alloc_mb", "MB", float64(rt1.alloc-rt0.alloc)/mib, 1),
		val("runtime.gc_cycles", "count", float64(rt1.gcs-rt0.gcs), 1),
		metric{name: "runtime.sched_wait_p90_us", unit: "us", value: schedUS * 1e6, n: schedN, ok: schedN >= 100},
	}
}
