package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// span is one timed call across a layer boundary. Spans of one day
// share Cell, the ID of that day's span; Parent is the span whose call
// caused this one. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Cell   int64  `json:"cell,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Op is the request kind of a serve.client span (create, status,
	// resume, ask, askwait, tell, result, evict, ...).
	Op string `json:"op,omitempty"`
	// Status is the HTTP status of a serve.client span (0: transport
	// error).
	Status int `json:"status,omitempty"`
	// Cycle is the batch cycle of an ask (0: initial design); -1 when
	// the span carried no batch.
	Cycle int `json:"cycle"`
	// N is the training-set size of a gp.fit span and the batch size of
	// a parallel.batch span.
	N int `json:"n,omitempty"`
	// Bytes counts request plus response body bytes of a serve.client
	// span.
	Bytes int64 `json:"bytes,omitempty"`
	// Snapshots and SnapBytes are a session's snapshot counters, read
	// by the serve.handler span of its evict just before forwarding it.
	Snapshots int64 `json:"snapshots,omitempty"`
	SnapBytes int64 `json:"snapshot_bytes,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// dayRec is the outcome of one day's optimization: a RunDay call on the
// fleets, one replicate on paper-day.
type dayRec struct {
	id     int64 // the day's span
	err    error
	evals  int
	nMax   int // training-set size of the day's last fit (fantasized busy points included)
	cycles int
	falls  int
	// fit and acq are each acquisition cycle's surrogate-fit and
	// acquisition wall time in seconds, indexed by cycle-1.
	fit, acq []float64
}

// recorder keeps a pass's spans and day records in memory. An untraced
// pass records only what its end-to-end metrics need — day spans and
// client round trips; a traced pass also records every layer boundary.
type recorder struct {
	epoch  time.Time
	traced bool
	ids    atomic.Int64

	mu    sync.Mutex
	spans []span
	days  []dayRec
}

func newRecorder(traced bool) *recorder {
	return &recorder{epoch: time.Now(), traced: traced}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) addDay(s span, d dayRec) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.days = append(r.days, d)
	r.mu.Unlock()
}

// contents returns copies of everything recorded so far.
func (r *recorder) contents() ([]span, []dayRec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), append([]dayRec(nil), r.days...)
}

// newDay summarizes a finished day. Both strategies the benchmark runs
// report APParallelism 1, so the engine divided AcqTime by no speed-up:
// it is the acquisition's wall time.
func newDay(id int64, res *core.Result, err error, batch int) dayRec {
	d := dayRec{id: id, err: err}
	if res == nil {
		if d.err == nil {
			d.err = errors.New("nil result")
		}
		return d
	}
	d.evals, d.cycles, d.falls = res.Evals, res.Cycles, res.Fallbacks
	d.nMax = res.Evals - batch
	d.fit = make([]float64, res.Cycles)
	d.acq = make([]float64, res.Cycles)
	for _, c := range res.History {
		if c.Cycle < 1 || c.Cycle > res.Cycles {
			continue
		}
		d.fit[c.Cycle-1] = c.FitTime.Seconds() / overheadFactor
		d.acq[c.Cycle-1] = c.AcqTime.Seconds() / overheadFactor
	}
	return d
}

// digestResult fingerprints a day's full evaluation trace bit for bit.
func digestResult(res *core.Result) uint64 {
	h := fnvOffset
	for i, x := range res.X {
		for _, v := range x {
			h = fnvMix(h, math.Float64bits(v))
		}
		h = fnvMix(h, math.Float64bits(res.Y[i]))
	}
	return h
}

// ---- fleet day runners ----

type cellKey struct{}

// cellOf returns the day span a request or call belongs to.
func cellOf(ctx context.Context) int64 {
	id, ok := ctx.Value(cellKey{}).(int64)
	if !ok {
		return 0
	}
	return id
}

// timedRunner is the scenario.DayRunner decorator behind cell_p50_s: it
// delegates to the production runner and records the call as the day's
// span.
type timedRunner struct {
	inner scenario.DayRunner
	rec   *recorder
	batch int // points per acquisition batch: q in sync mode, 1 in async
}

// RunDay implements scenario.DayRunner.
func (t *timedRunner) RunDay(ctx context.Context, spec *scenario.DaySpec, opt scenario.OptConfig) (*core.Result, error) {
	s := span{ID: t.rec.newID(), Name: "scenario.day", Cycle: -1}
	s.Cell = s.ID
	s.Start = t.rec.now()
	res, err := t.inner.RunDay(context.WithValue(ctx, cellKey{}, s.ID), spec, opt)
	s.End = t.rec.now()
	t.rec.addDay(s, newDay(s.ID, res, err, t.batch))
	return res, err
}

// tracedLocal is LocalRunner with spans: the day's engine is built
// through the same DaySpec.Engine and driven through runEngine, which
// reproduces Engine.Run's result bit for bit.
type tracedLocal struct{ rec *recorder }

// RunDay implements scenario.DayRunner.
func (t tracedLocal) RunDay(ctx context.Context, spec *scenario.DaySpec, opt scenario.OptConfig) (*core.Result, error) {
	cell := cellOf(ctx)
	b := span{ID: t.rec.newID(), Parent: cell, Cell: cell, Name: "scenario.build", Cycle: -1, Start: t.rec.now()}
	eng, _, err := spec.Engine(opt)
	b.End = t.rec.now()
	t.rec.add(b)
	if err != nil {
		return nil, err
	}
	return runEngine(ctx, t.rec, eng, cell)
}

// ---- in-process ask/tell loop ----

// tracedEvaluator times every simulator call of one day.
type tracedEvaluator struct {
	inner  parallel.Evaluator
	rec    *recorder
	cell   int64
	parent atomic.Int64 // the parallel.batch span being evaluated
}

// Eval implements parallel.Evaluator.
func (t *tracedEvaluator) Eval(x []float64) (float64, time.Duration) {
	s := span{ID: t.rec.newID(), Parent: t.parent.Load(), Cell: t.cell, Name: "uphes.eval", Cycle: -1, Start: t.rec.now()}
	y, cost := t.inner.Eval(x)
	s.End = t.rec.now()
	t.rec.add(s)
	return y, cost
}

// runEngine is Engine.Run's closed loop — Ask, Pool.EvalBatch, Tell
// until ErrDone — written against core's public ask/tell API with a
// span around every call. An ask span's N is the training-set size its
// fit saw.
func runEngine(ctx context.Context, rec *recorder, e *core.Engine, cell int64) (*core.Result, error) {
	ev := &tracedEvaluator{inner: e.Problem.Evaluator, rec: rec, cell: cell}
	prob := *e.Problem
	prob.Evaluator = ev
	eng := *e
	eng.Problem = &prob
	pool := eng.Pool
	if pool == nil {
		// Engine.Run's default pool differs only in its virtual-time
		// overhead model, which AskTell applies itself.
		pool = &parallel.Pool{}
	}
	at, err := core.NewAskTell(&eng)
	if err != nil {
		return nil, err
	}
	told := 0
	for {
		a := span{ID: rec.newID(), Parent: cell, Cell: cell, Name: "core.ask", Cycle: -1, N: told, Start: rec.now()}
		b, err := at.Ask(ctx)
		a.End = rec.now()
		if errors.Is(err, core.ErrDone) {
			return at.Result(), nil
		}
		if err != nil {
			return nil, err
		}
		a.Cycle = b.Cycle
		rec.add(a)

		bs := span{ID: rec.newID(), Parent: cell, Cell: cell, Name: "parallel.batch", Cycle: -1, N: len(b.Points), Start: rec.now()}
		ev.parent.Store(bs.ID)
		br, err := pool.EvalBatch(ctx, ev, b.Points)
		bs.End = rec.now()
		rec.add(bs)
		if err != nil {
			return nil, err
		}

		ts := span{ID: rec.newID(), Parent: cell, Cell: cell, Name: "core.tell", Cycle: -1, Start: rec.now()}
		err = at.Tell(b.ID, br.Y, br.Costs)
		ts.End = rec.now()
		rec.add(ts)
		if err != nil {
			return nil, err
		}
		told += len(b.Points)
	}
}

// ---- HTTP boundaries ----

// spanHeader carries the client span ID to the server's handler span.
const spanHeader = "X-E2ebench-Span"

// clientRecorder is the client-side http.RoundTripper: every round trip
// becomes a serve.client span, timed until the client has read the whole
// response body. Ask responses are decoded for their batch cycle.
type clientRecorder struct {
	next http.RoundTripper
	rec  *recorder
}

// RoundTrip implements http.RoundTripper.
func (c *clientRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	cell := cellOf(req.Context())
	s := span{ID: c.rec.newID(), Parent: cell, Cell: cell, Name: "serve.client", Op: requestOp(req), Cycle: -1}
	if req.ContentLength > 0 {
		s.Bytes = req.ContentLength
	}
	if c.rec.traced {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	}
	s.Start = c.rec.now()
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		s.End = c.rec.now()
		c.rec.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &recordedBody{ReadCloser: resp.Body, rec: c.rec, s: s, keep: s.Op == "ask" || s.Op == "askwait"}
	return resp, nil
}

// recordedBody finishes a serve.client span when the client reaches the
// end of the body or closes it.
type recordedBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	keep bool // buffer the body to decode an ask's batch cycle
	buf  bytes.Buffer
	done bool
}

func (b *recordedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	if b.keep {
		b.buf.Write(p[:n])
	}
	if errors.Is(err, io.EOF) {
		b.finish()
	}
	return n, err
}

func (b *recordedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *recordedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.s.End = b.rec.now()
	if b.keep && b.s.Status == http.StatusOK {
		var ar serve.AskResponse
		if err := json.Unmarshal(b.buf.Bytes(), &ar); err == nil && ar.Batch != nil {
			b.s.Cycle = ar.Batch.Cycle
		}
	}
	b.rec.add(b.s)
}

// requestOp names a pboserver request by route.
func requestOp(req *http.Request) string {
	rest, ok := strings.CutPrefix(req.URL.Path, "/v1/sessions")
	switch {
	case !ok:
		return strings.TrimPrefix(req.URL.Path, "/v1/")
	case rest == "":
		return "create"
	case strings.Count(rest, "/") == 1 && req.Method == http.MethodGet:
		return "status"
	case strings.Count(rest, "/") == 1 && req.Method == http.MethodDelete:
		return "evict"
	}
	op := rest[strings.LastIndexByte(rest, '/')+1:]
	if op == "ask" && req.Method == http.MethodGet {
		return "askwait"
	}
	return op
}

// wasted reports protocol-expected refusals: the 404 of an attach
// probe, the 409 of a resume of a never-persisted session, and the 409
// answering a drain ask (or an expired long poll) when no slot is free.
func wasted(s *span) bool {
	switch {
	case s.Op == "status" && s.Status == http.StatusNotFound:
		return true
	case (s.Op == "resume" || s.Op == "ask" || s.Op == "askwait") && s.Status == http.StatusConflict:
		return true
	}
	return false
}

// tracedHandler is the server-side http.Handler wrapper: every request
// becomes a serve.handler span linked to its client span. Before
// forwarding an evict it reads the session's snapshot counters, which
// drop out of Server.Metrics once the session is evicted.
type tracedHandler struct {
	next http.Handler
	srv  *serve.Server
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := span{ID: h.rec.newID(), Name: "serve.handler", Cycle: -1}
	if p, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
		s.Parent = p
	}
	if r.Method == http.MethodDelete {
		id := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
		for _, m := range h.srv.Metrics().PerSession {
			if m.ID == id {
				s.Snapshots, s.SnapBytes = m.Snapshots, m.SnapshotBytes
			}
		}
	}
	s.Start = h.rec.now()
	h.next.ServeHTTP(w, r)
	s.End = h.rec.now()
	h.rec.add(s)
}
