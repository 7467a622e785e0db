// Command e2ebench is the repository's end-to-end benchmark. It runs one
// closed-loop workload through the production entry points —
// pbo.OptimizeContext, scenario.Fleet with LocalRunner, scenario.Fleet
// with serve.FleetRunner against serve.Server — for a measured window,
// checks the outputs, and prints every end-to-end metric with its unit
// and sample count. With --trace 1 it runs the workload twice, untraced
// and then with spans recorded around every public layer boundary,
// checks that both passes computed the same results bit for bit, and
// prints the per-layer split and the tracing overhead. The last line of
// standard output is one JSON result object. README.md documents the
// workloads and metrics.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload paper-day --seed 1 --seconds 30 --trace 0
//
// Exit status: 0 when every output check passed, 1 when a check or the
// run failed, 2 on a usage error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one invocation, writing the run record to stdout and
// diagnostics to standard error, and returns the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 30, "measured window in seconds (a traced run splits it between its two passes)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer split")
	workdir := fs.String("workdir", ".bench_build", "directory for snapshot roots and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := newWorkload(config{workload: *name}); err != nil || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: usage: --workload {%s} --seed N --seconds S --trace {0,1}\n", strings.Join(workloadNames, ","))
		return 2
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workdir:  *workdir,
		sizes:    defaultSizes(*name),
	}
	rep, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if _, err := io.WriteString(stdout, rep.text()); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// check is one output check of a run.
type check struct {
	ok   bool
	what string
}

// report is a run record.
type report struct {
	cfg       config
	host      host
	metrics   []metric
	overhead  [][4]string // traced runs: metric, untraced, traced, note
	checks    []check
	attempted int
	failed    int
	spansFile string
	passes    []string // one line per measured pass: units and wall time
}

func (r *report) notePass(name string, p *pass) {
	r.passes = append(r.passes, fmt.Sprintf("%s pass: %d units, %d days in %.2f s, %d set-ups timed in %.2f s", name, len(p.units), len(p.days), p.elapsed.Seconds(), len(p.setup), p.probing.Seconds()))
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// execute runs cfg and returns its record. A failure inside a measured
// pass ends that pass and fails a check in the record; an error means
// the run could not start at all.
func execute(ctx context.Context, cfg config) (rep *report, err error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	if cfg.snapDir, err = os.MkdirTemp(cfg.workdir, "snap-"); err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(cfg.snapDir); err == nil {
			err = rerr
		}
	}()
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	return executeWith(ctx, cfg, w)
}

// executeWith runs cfg's passes on w; cfg.workdir exists.
func executeWith(ctx context.Context, cfg config, w workload) (*report, error) {
	rep := &report{cfg: cfg, host: fingerprint(cfg.workdir)}
	rep.host.ProbeMS[0] = probeWork()
	steal0, total0 := cpuTimes()
	if !cfg.trace {
		p := measure(ctx, w, newRecorder(false), cfg.window, cfg.minUnits, 0, cfg.probes)
		rep.notePass("measured", p)
		rep.metrics = endToEnd(cfg.workload, p, cfg.minUnits, readRuntime().maxRSS)
		rep.outputChecks(w, p, "")
	} else {
		// The untraced pass sets the unit count; the traced pass replays
		// exactly those units, so both must compute identical results.
		a := measure(ctx, w, newRecorder(false), cfg.window/2, cfg.minUnits, 0, cfg.probes)
		rssA := readRuntime().maxRSS
		rep.notePass("untraced", a)
		rep.outputChecks(w, a, "untraced pass: ")
		if a.err == nil {
			rt0 := readRuntime()
			b := measure(ctx, w, newRecorder(true), 0, 0, len(a.units), cfg.probes)
			rt1 := readRuntime()
			rep.notePass("traced", b)
			rep.metrics = layerMetrics(cfg.workload, b, rt0, rt1)
			rep.compare(cfg, a, b, rssA, rt1.maxRSS)
			rep.outputChecks(w, b, "traced pass: ")
			spans, err := writeSpans(cfg, b.spans)
			if err != nil {
				return nil, err
			}
			rep.spansFile = spans
		}
	}
	steal1, total1 := cpuTimes()
	rep.host.StealFrac = ratio(float64(steal1-steal0), float64(total1-total0))
	rep.host.ProbeMS[1] = probeWork()
	return rep, nil
}

// measure runs units back to back over the window — or exactly fixed
// units when fixed > 0. Past minUnits, a unit starts only while it is
// expected to end less than half a unit past the window, so a run lasts
// about the window whatever the unit length.
//
// setup_s samples the host across the whole window: a burst of set-ups,
// probes of them, runs after every unit, so a momentary slow or fast
// spell of the host moves few of them. One burst before the first unit
// warms the set-up path up and is discarded. Bursts run outside the
// window: their time counts neither in the window nor in the pass's
// elapsed time.
//
// The first failure — of a unit, a set-up or the pass's own set-up —
// ends the pass and is kept in its err; what ran until then is kept.
func measure(ctx context.Context, w workload, rec *recorder, window time.Duration, minUnits, fixed, probes int) *pass {
	p := &pass{}
	burst := func(keep bool) error {
		t0 := time.Now()
		defer func() { p.probing += time.Since(t0) }()
		for range probes {
			d, err := w.probe(ctx, newRecorder(rec.traced))
			if err != nil {
				return fmt.Errorf("set-up probe: %w", err)
			}
			if keep {
				p.setup = append(p.setup, d.Seconds())
			}
		}
		return nil
	}
	p.err = w.pass(ctx, rec, func(unit unitFunc) error {
		start := time.Now()
		defer func() { p.elapsed = time.Since(start) - p.probing }()
		if err := burst(false); err != nil {
			return err
		}
		for i := 0; fixed == 0 || i < fixed; i++ {
			if el := time.Since(start) - p.probing; fixed == 0 && i > 0 && i >= minUnits && el+el/time.Duration(2*i) >= window {
				break
			}
			u, err := unit(i)
			if err != nil {
				return fmt.Errorf("unit %d: %w", i, err)
			}
			p.units = append(p.units, u)
			if err := burst(true); err != nil {
				return err
			}
		}
		return nil
	})
	p.spans, p.days = rec.contents()
	return p
}

// outputChecks verifies a pass's outputs and counts its operations.
func (r *report) outputChecks(w workload, p *pass, label string) {
	want, bad, failed := w.wantEvals(), 0, 0
	for _, d := range p.days {
		if d.err != nil {
			failed++
		} else if d.evals != want {
			bad++
		}
	}
	violating := 0
	for _, u := range p.units {
		violating += u.violating
	}
	ended := "every unit and set-up completed"
	if p.err != nil {
		ended = fmt.Sprintf("the pass ended early after %d units: %v", len(p.units), p.err)
	}
	r.checks = append(r.checks,
		check{p.err == nil, label + ended},
		check{bad == 0, fmt.Sprintf("%severy day spent exactly its configured %d evaluations (%d of %d did not)", label, want, bad, len(p.days))},
		check{failed == 0, fmt.Sprintf("%sno failed day cells (%d of %d failed)", label, failed, len(p.days))},
		check{violating == 0, fmt.Sprintf("%sno committed violating days in the fleet reports (%d)", label, violating)},
	)
	attempted, failedOps := p.ops()
	r.attempted += attempted
	r.failed += failedOps
}

// compare checks that the traced pass reproduced the untraced one and
// records the tracing overhead on every end-to-end metric. rssA and rssB
// are the process's max RSS after each pass.
func (r *report) compare(cfg config, a, b *pass, rssA, rssB float64) {
	same := len(a.units) == len(b.units)
	for i := 0; same && i < len(a.units); i++ {
		same = a.units[i].digest == b.units[i].digest &&
			math.Float64bits(a.units[i].profit) == math.Float64bits(b.units[i].profit)
	}
	r.checks = append(r.checks, check{same, fmt.Sprintf("traced pass reproduces the untraced results and profit_eur bit for bit (%d units)", len(a.units))})
	ea := endToEnd(cfg.workload, a, cfg.minUnits, rssA)
	eb := endToEnd(cfg.workload, b, cfg.minUnits, rssB)
	for i, m := range ea {
		note := ""
		if m.name == "peak_rss_mb" {
			note = " (max RSS only grows: the traced figure is the peak of both passes)"
		}
		if m.ok && eb[i].ok {
			r.overhead = append(r.overhead, [4]string{m.name + " [" + m.unit + "]", fmtVal(m.value), fmtVal(eb[i].value), note})
		}
	}
}

// writeSpans writes a traced pass's spans as JSON lines.
func writeSpans(cfg config, spans []span) (path string, err error) {
	path = filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err = enc.Encode(&spans[i]); err != nil {
			break
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

func fmtVal(v float64) string { return fmt.Sprintf("%.6g", v) }

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// text renders the run record: header, host fingerprint, metrics with
// sample counts, overhead, checks, and the JSON result line last.
func (r *report) text() string {
	var b strings.Builder
	mode := "untraced"
	if r.cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(&b, "e2ebench %s seed=%d window=%v %s\n", r.cfg.workload, r.cfg.seed, r.cfg.window, mode)
	hj, err := json.Marshal(r.host)
	if err != nil {
		hj = []byte(err.Error())
	}
	fmt.Fprintf(&b, "host %s\n", hj)
	for _, p := range r.passes {
		fmt.Fprintf(&b, "%s\n", p)
	}
	section, declared := "end-to-end", gated
	if r.cfg.trace {
		section, declared = "per-layer (traced pass)", layers
	}
	fmt.Fprintf(&b, "%s:\n", section)
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		switch {
		case m.ok:
			fmt.Fprintf(&b, "  %-26s %14s %-9s n=%d\n", m.name, fmtVal(m.value), m.unit, m.n)
		case m.n > 0:
			fmt.Fprintf(&b, "  %-26s %14s %-9s n=%d (fewer than ten samples beyond the percentile)\n", m.name, "-", m.unit, m.n)
		default:
			fmt.Fprintf(&b, "  %-26s %14s %-9s not measured on this workload\n", m.name, "-", m.unit)
		}
		if m.ok && slices.Contains(declared, m.name) {
			res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	if len(r.overhead) > 0 {
		fmt.Fprintf(&b, "tracing overhead (same units, untraced -> traced):\n")
		for _, o := range r.overhead {
			fmt.Fprintf(&b, "  %-26s %14s -> %s%s\n", o[0], o[1], o[2], o[3])
		}
	}
	if r.spansFile != "" {
		fmt.Fprintf(&b, "spans: %s\n", r.spansFile)
	}
	fmt.Fprintf(&b, "checks:\n")
	for _, c := range r.checks {
		mark := "ok  "
		if !c.ok {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  %s %s\n", mark, c.what)
	}
	rj, err := json.Marshal(res)
	if err != nil {
		rj = []byte(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
	}
	b.Write(rj)
	b.WriteByte('\n')
	return b.String()
}
