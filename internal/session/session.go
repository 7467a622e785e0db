// Package session exposes an optimization run as a long-lived ask/tell
// service unit: a Session wraps core.AskTell with member-level result
// ingestion (a batch's evaluations may arrive one at a time, from
// different workers, in any order), a mutex so concurrent callers — HTTP
// handlers, worker pools — can share it, and automatic crash-safe
// checkpointing through a snapshot.Store after every state-changing
// operation. A killed process resumes from the newest valid snapshot and
// replays the uninterrupted run bit-for-bit.
package session

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/session/snapshot"
)

// ErrDone re-exports core's completion sentinel for callers that only
// import session.
var ErrDone = core.ErrDone

// Config assembles a session.
type Config struct {
	// ID names the session (snapshot payloads echo it; Resume verifies it).
	ID string
	// Engine is the full optimization configuration. The engine's
	// Evaluator is never called by the session — evaluation is the
	// caller's job — but must be non-nil to satisfy engine validation and
	// because its Pool models the virtual time told results are charged.
	Engine *core.Engine
	// Store persists snapshots; nil disables persistence (ask/tell only).
	Store *snapshot.Store
	// Now overrides the measured-time source for fit/acquisition timing
	// (default time.Now). Tests inject a deterministic clock.
	Now func() time.Time
}

// EvalResult is one evaluated batch member.
type EvalResult struct {
	// BatchID identifies the batch the member belongs to.
	BatchID int `json:"batch_id"`
	// Member is the index of the point within the batch.
	Member int `json:"member"`
	// Y is the objective value.
	Y float64 `json:"y"`
	// CostNS is the simulated evaluation latency in nanoseconds.
	CostNS int64 `json:"cost_ns"`
}

// PendingStatus describes one in-flight batch.
type PendingStatus struct {
	BatchID  int `json:"batch_id"`
	Cycle    int `json:"cycle"`
	Size     int `json:"size"`
	Received int `json:"received"`
}

// Status is a point-in-time summary of a session.
type Status struct {
	ID        string          `json:"id"`
	Problem   string          `json:"problem"`
	Strategy  string          `json:"strategy"`
	Done      bool            `json:"done"`
	Cycles    int             `json:"cycles"`
	Evals     int             `json:"evals"`
	InitEvals int             `json:"init_evals"`
	BestY     float64         `json:"best_y"`
	HaveBest  bool            `json:"have_best"`
	VirtualNS int64           `json:"virtual_ns"`
	Pending   []PendingStatus `json:"pending,omitempty"`
}

// receipt accumulates the member results received so far for one
// in-flight batch.
type receipt struct {
	ys    []float64
	costs []time.Duration
	got   []bool
	n     int
}

// Session is a concurrent-safe ask/tell optimization run.
type Session struct {
	mu    sync.Mutex
	id    string
	at    *core.AskTell
	store *snapshot.Store

	// receipts holds one entry per in-flight batch, keyed by batch ID.
	// The batches themselves and their ask order are the engine's pending
	// ledger (core.AskTell.Pending); only the member receipts live here.
	receipts map[int]*receipt

	// changed is the broadcast channel for long-poll waiters: every
	// state transition that could unblock an Ask closes it and installs
	// a fresh one. Waiters grab the current channel under the lock, try
	// their Ask, and only then block on the grabbed channel — a close
	// between the grab and the block wakes them immediately, so no
	// transition can be missed.
	changed chan struct{}

	// Usage counters; persisted in the snapshot payload so metrics
	// survive crash-and-resume.
	asks          int64
	tells         int64
	snapshots     int64
	snapshotBytes int64
}

// payload is the snapshot schema: the engine checkpoint plus the
// member-level partial-tell ledger (the engine ledger holds the batches
// themselves; only the received members need extra state) and the usage
// counters. The counter fields are omitempty-optional — absent in v1
// frames, which therefore resume with zeroed metrics.
type payload struct {
	ID            string            `json:"id"`
	Checkpoint    *core.Checkpoint  `json:"checkpoint"`
	Partials      []partialSnapshot `json:"partials,omitempty"`
	Asks          int64             `json:"asks,omitempty"`
	Tells         int64             `json:"tells,omitempty"`
	Snapshots     int64             `json:"snapshots,omitempty"`
	SnapshotBytes int64             `json:"snapshot_bytes,omitempty"`
}

type partialSnapshot struct {
	BatchID int       `json:"batch_id"`
	Ys      []float64 `json:"ys"`
	CostsNS []int64   `json:"costs_ns"`
	Got     []bool    `json:"got"`
}

// payloadShell is the JSON side of the snapshot v3 split encoding of
// payload: the checkpoint's own shell rides embedded as raw JSON, the
// bulk float data — the checkpoint's sections, then per-partial member
// values and costs — rides the binary sections. The plain JSON tags on
// payload itself stay load-bearing for decoding v1/v2 frames.
type payloadShell struct {
	ID string `json:"id"`
	// Checkpoint is the engine checkpoint's JSON shell; its binary
	// sections are the first CheckpointSections sections of the frame.
	Checkpoint         json.RawMessage `json:"checkpoint"`
	CheckpointSections int             `json:"checkpoint_sections"`
	// Partials lists the partial-tell ledger minus the member values and
	// costs, which ride two sections per entry (Ys, then CostsNS
	// bit-packed) after the checkpoint's.
	Partials      []partialShell `json:"partials,omitempty"`
	Asks          int64          `json:"asks,omitempty"`
	Tells         int64          `json:"tells,omitempty"`
	Snapshots     int64          `json:"snapshots,omitempty"`
	SnapshotBytes int64          `json:"snapshot_bytes,omitempty"`
}

type partialShell struct {
	BatchID int    `json:"batch_id"`
	Got     []bool `json:"got"`
}

// MarshalSections implements the snapshot v3 split encoding
// (snapshot.SectionCodec, structurally): the checkpoint's sections
// first, then one Ys and one bit-packed CostsNS section per partial
// ledger entry. Cost nanoseconds cross as raw uint64 bit patterns in
// the float64 sections — lossless for the full int64 range, where a
// numeric conversion would round past 2^53.
func (p *payload) MarshalSections() ([]byte, [][]float64, error) {
	if p.Checkpoint == nil {
		return nil, nil, errors.New("session: payload has no checkpoint")
	}
	cpShell, sections, err := p.Checkpoint.MarshalSections()
	if err != nil {
		return nil, nil, err
	}
	sh := payloadShell{
		ID: p.ID, Checkpoint: cpShell, CheckpointSections: len(sections),
		Asks: p.Asks, Tells: p.Tells,
		Snapshots: p.Snapshots, SnapshotBytes: p.SnapshotBytes,
	}
	for _, ps := range p.Partials {
		sh.Partials = append(sh.Partials, partialShell{BatchID: ps.BatchID, Got: ps.Got})
		costs := make([]float64, len(ps.CostsNS))
		for i, c := range ps.CostsNS {
			costs[i] = math.Float64frombits(uint64(c))
		}
		sections = append(sections, ps.Ys, costs)
	}
	data, err := json.Marshal(&sh)
	if err != nil {
		return nil, nil, err
	}
	return data, sections, nil
}

// UnmarshalSections implements the snapshot v3 split decoding
// (snapshot.SectionCodec, structurally).
func (p *payload) UnmarshalSections(shell []byte, sections [][]float64) error {
	var sh payloadShell
	if err := json.Unmarshal(shell, &sh); err != nil {
		return fmt.Errorf("session: payload shell: %w", err)
	}
	if sh.CheckpointSections < 0 || sh.CheckpointSections > len(sections) ||
		len(sections) != sh.CheckpointSections+2*len(sh.Partials) {
		return fmt.Errorf("session: payload frame has %d sections, shell describes %d+2×%d", len(sections), sh.CheckpointSections, len(sh.Partials))
	}
	cp := new(core.Checkpoint)
	if err := cp.UnmarshalSections(sh.Checkpoint, sections[:sh.CheckpointSections]); err != nil {
		return err
	}
	var partials []partialSnapshot
	for i, ps := range sh.Partials {
		ys := sections[sh.CheckpointSections+2*i]
		costsF := sections[sh.CheckpointSections+2*i+1]
		if len(ys) != len(ps.Got) || len(costsF) != len(ps.Got) {
			return fmt.Errorf("session: partial ledger for batch %d malformed", ps.BatchID)
		}
		costs := make([]int64, len(costsF))
		for j, f := range costsF {
			costs[j] = int64(math.Float64bits(f))
		}
		partials = append(partials, partialSnapshot{BatchID: ps.BatchID, Ys: ys, CostsNS: costs, Got: ps.Got})
	}
	*p = payload{
		ID: sh.ID, Checkpoint: cp, Partials: partials,
		Asks: sh.Asks, Tells: sh.Tells,
		Snapshots: sh.Snapshots, SnapshotBytes: sh.SnapshotBytes,
	}
	return nil
}

// New opens a fresh session. If a Store is configured, the initial state
// is snapshotted immediately so a crash before the first ask still leaves
// a resumable run.
func New(cfg Config) (*Session, error) {
	if cfg.ID == "" {
		return nil, errors.New("session: empty id")
	}
	at, err := core.NewAskTell(cfg.Engine)
	if err != nil {
		return nil, err
	}
	at.SetNow(cfg.Now)
	s := &Session{id: cfg.ID, at: at, store: cfg.Store, receipts: map[int]*receipt{}, changed: make(chan struct{})}
	if err := s.snapshotLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Resume reopens a session from the newest valid snapshot in cfg.Store.
// The engine configuration must match the one that produced the snapshot
// (problem, strategy, batch size, seed — verified by the core resume) and
// the snapshot's session ID must match cfg.ID.
func Resume(cfg Config) (*Session, error) {
	if cfg.Store == nil {
		return nil, errors.New("session: resume needs a snapshot store")
	}
	var p payload
	path, err := cfg.Store.LoadLatest(&p)
	if err != nil {
		return nil, err
	}
	s, err := fromPayload(cfg, &p, path)
	if err != nil {
		return nil, err
	}
	// The payload records the counters as of the moment before its own
	// frame was written; the frame we just loaded is itself one snapshot
	// of its own size, so account for it — resumed metrics match the
	// killed session's exactly.
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	s.snapshots++
	s.snapshotBytes += fi.Size()
	return s, nil
}

// fromPayload rebuilds a live session from a decoded snapshot payload:
// engine resume, partial-tell ledger, usage counters taken verbatim. The
// ledger must hold exactly one entry per pending engine batch: a batch
// without one could never be told. Counter reconciliation for the source
// frame itself — Resume's "count the frame we just loaded" — stays with
// the callers, because Resume and Restore account for it differently.
// where names the payload's origin in errors.
func fromPayload(cfg Config, p *payload, where string) (*Session, error) {
	if p.ID != cfg.ID {
		return nil, fmt.Errorf("session: %s belongs to session %q, not %q", where, p.ID, cfg.ID)
	}
	at, err := core.ResumeAskTell(cfg.Engine, p.Checkpoint)
	if err != nil {
		return nil, fmt.Errorf("session: %s: %w", where, err)
	}
	at.SetNow(cfg.Now)
	s := &Session{
		id: cfg.ID, at: at, store: cfg.Store, receipts: map[int]*receipt{}, changed: make(chan struct{}),
		asks: p.Asks, tells: p.Tells, snapshots: p.Snapshots, snapshotBytes: p.SnapshotBytes,
	}
	sizes := map[int]int{}
	for _, b := range at.Pending() {
		sizes[b.ID] = len(b.Points)
	}
	for _, ps := range p.Partials {
		n, ok := sizes[ps.BatchID]
		if !ok {
			return nil, fmt.Errorf("session: %s: partial results for unknown batch %d", where, ps.BatchID)
		}
		if _, dup := s.receipts[ps.BatchID]; dup {
			return nil, fmt.Errorf("session: %s: partial ledger lists batch %d twice", where, ps.BatchID)
		}
		if len(ps.Ys) != n || len(ps.CostsNS) != n || len(ps.Got) != n {
			return nil, fmt.Errorf("session: %s: partial ledger for batch %d malformed", where, ps.BatchID)
		}
		rc := &receipt{ys: ps.Ys, costs: make([]time.Duration, n), got: ps.Got}
		for i, c := range ps.CostsNS {
			rc.costs[i] = time.Duration(c)
			if ps.Got[i] {
				rc.n++
			}
		}
		s.receipts[ps.BatchID] = rc
	}
	if len(s.receipts) != len(sizes) {
		return nil, fmt.Errorf("session: %s: partial ledger covers %d of %d pending batches", where, len(s.receipts), len(sizes))
	}
	return s, nil
}

// Export serializes the session's complete live state — engine
// checkpoint, partial-tell ledger, usage counters — as one snapshot
// frame for migration into another process via Restore. Unlike the
// regular checkpoint path, the counters cross verbatim: a Restored
// session adopts them as-is and neither side counts the handoff frame
// itself, so the migrated session's metrics continue exactly where an
// unmigrated run's would be. If the session persists, the frame is also
// saved (uncounted) so the source store's newest snapshot is the
// handed-off state — an operator can still resume here if the import
// never lands.
func (s *Session) Export() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, err := s.payloadLocked()
	if err != nil {
		return nil, err
	}
	frame, err := snapshot.Encode(p)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	if s.store != nil {
		if _, err := s.store.SaveEncoded(frame); err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
	}
	return frame, nil
}

// Restore opens a session from an Export frame on this process's side
// of a migration. The frame must decode, belong to cfg.ID, and match
// the engine configuration (verified by the core resume). Counters are
// adopted verbatim — see Export for why neither side counts the handoff
// frame. If cfg.Store is set, the frame is saved there first (also
// uncounted), so a crash immediately after the import resumes from the
// migrated state.
func Restore(cfg Config, frame []byte) (*Session, error) {
	if cfg.ID == "" {
		return nil, errors.New("session: empty id")
	}
	var p payload
	if err := snapshot.Decode(frame, &p); err != nil {
		return nil, fmt.Errorf("session: import frame: %w", err)
	}
	s, err := fromPayload(cfg, &p, "import frame")
	if err != nil {
		return nil, err
	}
	if cfg.Store != nil {
		if _, err := cfg.Store.SaveEncoded(frame); err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
	}
	return s, nil
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Ask returns the next batch to evaluate. It forwards core.AskTell's
// contract — ErrDone once every asked point is told and no cycle is
// left, core.ErrNoBatchReady while the next batch waits on told results
// — and snapshots the advanced state before releasing the batch, so a
// crash after the caller receives it still resumes with the batch in the
// pending ledger.
func (s *Session) Ask(ctx context.Context) (*core.Batch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.at.Ask(ctx)
	if err != nil {
		return nil, err
	}
	n := len(b.Points)
	s.receipts[b.ID] = &receipt{ys: make([]float64, n), costs: make([]time.Duration, n), got: make([]bool, n)}
	s.asks++
	if err := s.snapshotLocked(); err != nil {
		return nil, err
	}
	return b, nil
}

// AwaitAsk is Ask with a bounded wait — the long-poll primitive. When no
// batch is ready (in-flight slots full, a synchronous cycle batch or
// design wave out at other workers, or a finished run's last points out),
// it blocks until a Tell changes the session state, then retries, until
// wait expires — in which case it returns core.ErrNoBatchReady like a
// plain Ask would. Terminal conditions (ErrDone, engine failure, ctx
// cancellation) return immediately. Waiters hold no lock while blocked,
// so asks and tells from other workers proceed freely underneath.
func (s *Session) AwaitAsk(ctx context.Context, wait time.Duration) (*core.Batch, error) {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		// Grab the broadcast channel BEFORE trying the Ask: a Tell that
		// lands between a failed Ask and the select below has already
		// closed this grabbed channel, so the wakeup cannot be missed.
		s.mu.Lock()
		ch := s.changed
		s.mu.Unlock()
		b, err := s.Ask(ctx)
		if err == nil || !errors.Is(err, core.ErrNoBatchReady) {
			return b, err
		}
		select {
		case <-ch:
		case <-timer.C:
			return nil, core.ErrNoBatchReady
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// notifyLocked wakes every blocked AwaitAsk waiter. Callers hold s.mu.
func (s *Session) notifyLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// Tell ingests evaluated members, in any order and any grouping; a batch
// is forwarded to the engine exactly when its last member arrives.
// Completed engine transitions are snapshotted. On a validation error
// (unknown batch, out-of-range member, duplicate member, negative cost, or
// a NaN or ±Inf value, which wraps core.ErrNonFinite) the session state
// is unchanged and no snapshot is written.
func (s *Session) Tell(ctx context.Context, results []EvalResult) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Validate the whole group first: a Tell is all-or-nothing.
	staged := map[int]map[int]bool{}
	for _, r := range results {
		rc, ok := s.receipts[r.BatchID]
		if !ok {
			return fmt.Errorf("session: tell for unknown or completed batch %d", r.BatchID)
		}
		if r.Member < 0 || r.Member >= len(rc.got) {
			return fmt.Errorf("session: batch %d has no member %d", r.BatchID, r.Member)
		}
		if rc.got[r.Member] || staged[r.BatchID][r.Member] {
			return fmt.Errorf("session: duplicate result for batch %d member %d", r.BatchID, r.Member)
		}
		if r.CostNS < 0 {
			return fmt.Errorf("session: negative cost for batch %d member %d", r.BatchID, r.Member)
		}
		if math.IsNaN(r.Y) || math.IsInf(r.Y, 0) {
			return fmt.Errorf("session: batch %d member %d: value %v: %w", r.BatchID, r.Member, r.Y, core.ErrNonFinite)
		}
		if staged[r.BatchID] == nil {
			staged[r.BatchID] = map[int]bool{}
		}
		staged[r.BatchID][r.Member] = true
	}

	for _, r := range results {
		rc := s.receipts[r.BatchID]
		rc.ys[r.Member] = r.Y
		rc.costs[r.Member] = time.Duration(r.CostNS)
		rc.got[r.Member] = true
		rc.n++
	}
	s.tells += int64(len(results))

	// Forward every batch that just completed, in the engine's ask order —
	// the order the closed loop would have told them, keeping sequential
	// drivers bit-identical to Engine.Run. A forward error leaves both
	// ledgers consistent: batches already forwarded are gone from each,
	// everything from the failed one on stays pending in each.
	for _, b := range s.at.Pending() {
		rc := s.receipts[b.ID]
		if rc.n < len(rc.got) {
			continue
		}
		if err := s.at.Tell(b.ID, rc.ys, rc.costs); err != nil {
			s.notifyLocked()
			return err
		}
		delete(s.receipts, b.ID)
	}
	err := s.snapshotLocked()
	// Wake long-poll waiters last, after the advanced state is durable:
	// an engine-level tell may have freed an asynchronous in-flight slot
	// (or completed a design wave), making a blocked Ask succeed.
	s.notifyLocked()
	return err
}

// Status reports the session's current progress.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.at.Result()
	st := Status{
		ID:        s.id,
		Problem:   res.Problem,
		Strategy:  res.Strategy,
		Done:      s.at.Done(),
		Cycles:    res.Cycles,
		Evals:     res.Evals,
		InitEvals: res.InitEvals,
		BestY:     res.BestY,
		HaveBest:  res.BestX != nil,
		VirtualNS: int64(s.at.Elapsed()),
	}
	for _, b := range s.at.Pending() {
		st.Pending = append(st.Pending, PendingStatus{
			BatchID:  b.ID,
			Cycle:    b.Cycle,
			Size:     len(b.Points),
			Received: s.receipts[b.ID].n,
		})
	}
	return st
}

// Metrics is a point-in-time counter snapshot of one session. Asks,
// Tells, Snapshots and SnapshotBytes are cumulative (and survive
// crash-and-resume via the snapshot payload); Pending counts in-flight
// batches and PendingMembers their not-yet-received members;
// FantasyFallbacks is the engine's count of asynchronous proposals that
// skipped a busy point whose fantasy could not be formed.
type Metrics struct {
	ID               string `json:"id"`
	Mode             string `json:"mode"`
	Done             bool   `json:"done"`
	Asks             int64  `json:"asks"`
	Tells            int64  `json:"tells"`
	Pending          int    `json:"pending"`
	PendingMembers   int    `json:"pending_members"`
	FantasyFallbacks int    `json:"fantasy_fallbacks"`
	Snapshots        int64  `json:"snapshots"`
	SnapshotBytes    int64  `json:"snapshot_bytes"`
}

// Metrics reports the session's usage counters.
func (s *Session) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		ID:               s.id,
		Mode:             s.at.Mode().String(),
		Done:             s.at.Done(),
		Asks:             s.asks,
		Tells:            s.tells,
		Pending:          len(s.receipts),
		FantasyFallbacks: s.at.FantasyFallbacks(),
		Snapshots:        s.snapshots,
		SnapshotBytes:    s.snapshotBytes,
	}
	for _, rc := range s.receipts {
		m.PendingMembers += len(rc.got) - rc.n
	}
	return m
}

// PendingBatch is an in-flight batch together with the member-level
// receipt mask — everything a worker pool needs to pick up (or, after a
// crash that lost results in flight, re-evaluate) outstanding work.
type PendingBatch struct {
	Batch core.Batch `json:"batch"`
	// Received marks the members whose results have already been told.
	Received []bool `json:"received"`
}

// PendingWork returns the in-flight batches in ask order, with their
// points and receipt masks. After Resume, callers should evaluate and
// tell every unreceived member before asking for new work.
func (s *Session) PendingWork() []PendingBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	pending := s.at.Pending()
	out := make([]PendingBatch, 0, len(pending))
	for _, b := range pending {
		out = append(out, PendingBatch{Batch: b, Received: append([]bool(nil), s.receipts[b.ID].got...)})
	}
	return out
}

// Persistent reports whether the session writes snapshots.
func (s *Session) Persistent() bool { return s.store != nil }

// Done reports whether the run is complete, every asked point told.
func (s *Session) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.at.Done()
}

// Result returns a deep copy of the run result accumulated so far. The
// copy shares no memory with the session's live state, so callers may
// read or serialize it after the session lock is released while other
// goroutines keep asking and telling — the server's GET result path.
func (s *Session) Result() *core.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.at.Result().Clone()
}

// Snapshot forces a snapshot now (no-op without a store). The server's
// graceful-shutdown path calls it after draining in-flight tells.
func (s *Session) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// Snapshots lists the snapshot files of this session, oldest first.
func (s *Session) Snapshots() ([]string, error) {
	if s.store == nil {
		return nil, nil
	}
	return s.store.List()
}

// payloadLocked assembles the snapshot payload of the current state,
// counters as they stand right now. Callers hold s.mu.
func (s *Session) payloadLocked() (*payload, error) {
	cp, err := s.at.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	p := &payload{
		ID: s.id, Checkpoint: cp,
		Asks: s.asks, Tells: s.tells,
		Snapshots: s.snapshots, SnapshotBytes: s.snapshotBytes,
	}
	for _, pc := range cp.Pending {
		rc := s.receipts[pc.ID]
		costs := make([]int64, len(rc.costs))
		for i, c := range rc.costs {
			costs[i] = int64(c)
		}
		p.Partials = append(p.Partials, partialSnapshot{
			BatchID: pc.ID,
			Ys:      rc.ys,
			CostsNS: costs,
			Got:     rc.got,
		})
	}
	return p, nil
}

func (s *Session) snapshotLocked() error {
	if s.store == nil {
		return nil
	}
	p, err := s.payloadLocked()
	if err != nil {
		return err
	}
	frame, err := snapshot.Encode(p)
	if err != nil {
		return fmt.Errorf("session: %w", err)
	}
	if _, err := s.store.SaveEncoded(frame); err != nil {
		return fmt.Errorf("session: %w", err)
	}
	s.snapshots++
	s.snapshotBytes += int64(len(frame))
	return nil
}
