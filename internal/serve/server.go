package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/session/snapshot"
)

// Server hosts concurrent optimization sessions behind a JSON HTTP API.
// Sessions serialize their own state transitions (per-session mutex in
// session.Session); the server only guards the registry map.
type Server struct {
	// SnapRoot is the directory holding one snapshot subdirectory per
	// session; empty disables persistence (sessions live in memory only).
	SnapRoot string
	// Keep bounds retained snapshots per session (snapshot.Store.Keep).
	Keep int
	// Timeout bounds each request's handling time (default 30s).
	Timeout time.Duration
	// MaxDoneResident bounds how many completed persisted sessions stay
	// in the live registry; beyond it the oldest-completed are snapshotted
	// one final time and unloaded (resume brings them back on demand).
	// Zero means unbounded. Completed sessions without a store are never
	// auto-evicted — unloading them would destroy their results.
	MaxDoneResident int
	// Now overrides the sessions' measured-time source (tests).
	Now func() time.Time

	mu       sync.RWMutex
	sessions map[string]*entry
	// doneOrder lists persisted sessions in completion-observation order —
	// the eviction FIFO. Count-based (not time-based) so the server stays
	// deterministic under injected clocks.
	doneOrder []string
}

type entry struct {
	spec SessionSpec
	sess *session.Session
}

const specFile = "spec.json"

func (s *Server) timeout() time.Duration {
	if s.Timeout <= 0 {
		return 30 * time.Second
	}
	return s.Timeout
}

func (s *Server) store(id string) *snapshot.Store {
	if s.SnapRoot == "" {
		return nil
	}
	return &snapshot.Store{Dir: filepath.Join(s.SnapRoot, id), Keep: s.Keep}
}

// Create assembles and registers a new session from spec. With
// persistence enabled the spec itself is written next to the snapshots,
// which is what makes Resume and ResumeAll possible after a restart.
func (s *Server) Create(spec SessionSpec) (*session.Session, error) {
	return s.install(spec, false, nil)
}

// install is the path Create and Import share: the spec is validated and
// assembled into an engine, the ID is checked against the live registry
// and the snapshot root, and the spec is persisted. The session then
// comes to life on it — fresh, or restored from frame when restore is
// set — and is registered live; if that fails, the persisted spec is
// unwound.
func (s *Server) install(spec SessionSpec, restore bool, frame []byte) (*session.Session, error) {
	eng, err := spec.Engine()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[spec.ID]; ok {
		return nil, fmt.Errorf("serve: session %q: %w", spec.ID, ErrExists)
	}
	store := s.store(spec.ID)
	if store != nil {
		specPath := filepath.Join(store.Dir, specFile)
		if _, err := os.Stat(specPath); err == nil {
			return nil, fmt.Errorf("serve: session %q persisted in %s, resume it instead: %w", spec.ID, store.Dir, ErrExists)
		} else if !os.IsNotExist(err) {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if err := os.MkdirAll(store.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		raw, err := json.MarshalIndent(&spec, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		// The spec rides the snapshots' atomic+durable write path: a
		// truncated spec.json would make ResumeAll abort on every start.
		if err := snapshot.WriteFileDurable(specPath, raw); err != nil {
			return nil, fmt.Errorf("serve: write spec: %w", err)
		}
	}
	cfg := session.Config{ID: spec.ID, Engine: eng, Store: store, Now: s.Now}
	var sess *session.Session
	if restore {
		if sess, err = session.Restore(cfg, frame); err != nil {
			err = fmt.Errorf("serve: import %s: %w", spec.ID, err)
		}
	} else {
		sess, err = session.New(cfg)
	}
	if err != nil {
		if store != nil {
			// Unwind the spec so ResumeAll does not trip forever over a
			// session that never came to life; the directory removal only
			// succeeds when nothing else landed in it.
			//lint:ignore errcheck best-effort unwind, resume skips spec-less directories
			_ = os.Remove(filepath.Join(store.Dir, specFile))
			//lint:ignore errcheck best-effort unwind
			_ = os.Remove(store.Dir)
		}
		return nil, err
	}
	s.register(spec, sess)
	return sess, nil
}

// register adds a session to the live registry. Callers hold s.mu.
func (s *Server) register(spec SessionSpec, sess *session.Session) {
	if s.sessions == nil {
		s.sessions = map[string]*entry{}
	}
	s.sessions[spec.ID] = &entry{spec: spec, sess: sess}
}

// Resume reopens a persisted session from its stored spec and newest
// valid snapshot. It refuses to run without persistence or to shadow a
// session already live in the registry.
func (s *Server) Resume(id string) (*session.Session, error) {
	if s.SnapRoot == "" {
		return nil, errors.New("serve: resume needs a snapshot root")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[id]; ok {
		return nil, fmt.Errorf("serve: session %q is already live", id)
	}
	store := s.store(id)
	raw, err := os.ReadFile(filepath.Join(store.Dir, specFile))
	if err != nil {
		return nil, fmt.Errorf("serve: resume %s: %w", id, err)
	}
	var spec SessionSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("serve: resume %s: bad spec: %w", id, err)
	}
	if spec.ID != id {
		return nil, fmt.Errorf("serve: spec in %s names session %q", store.Dir, spec.ID)
	}
	eng, err := spec.Engine()
	if err != nil {
		return nil, err
	}
	sess, err := session.Resume(session.Config{ID: id, Engine: eng, Store: store, Now: s.Now})
	if err != nil {
		return nil, err
	}
	s.register(spec, sess)
	return sess, nil
}

// ResumeAll resumes every persisted session found under SnapRoot,
// returning the IDs brought back. Sessions that fail to resume abort the
// whole call: a server must not silently come up with half its state.
func (s *Server) ResumeAll() ([]string, error) {
	if s.SnapRoot == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(s.SnapRoot)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.SnapRoot, e.Name(), specFile)); err != nil {
			continue
		}
		if _, err := s.Resume(e.Name()); err != nil {
			return ids, err
		}
		ids = append(ids, e.Name())
	}
	return ids, nil
}

func (s *Server) get(id string) (*entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.sessions[id]
	//lint:ignore locksafe two-level locking: s.mu guards only the map; Session synchronizes itself and spec is immutable
	return e, ok
}

// IDs returns the live session IDs, sorted.
func (s *Server) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Drain forces a final snapshot of every live session — the graceful-
// shutdown path, called after the HTTP listener has stopped accepting
// and in-flight requests (tells included) have finished.
func (s *Server) Drain(ctx context.Context) error {
	var firstErr error
	for _, id := range s.IDs() {
		if err := ctx.Err(); err != nil {
			return err
		}
		e, ok := s.get(id)
		if !ok {
			continue
		}
		if err := e.sess.Snapshot(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("drain %s: %w", id, err)
		}
	}
	return firstErr
}

// noteDone records that a session has been observed complete, feeding the
// eviction FIFO; beyond MaxDoneResident the oldest-completed persisted
// sessions are snapshotted one final time and unloaded. Observing the
// same session twice is a no-op, and store-less sessions are never
// auto-evicted (unloading them would destroy their only copy).
func (s *Server) noteDone(id string) {
	if s.MaxDoneResident <= 0 {
		return
	}
	s.mu.Lock()
	e, ok := s.sessions[id]
	if ok && e.sess.Persistent() && !containsString(s.doneOrder, id) {
		s.doneOrder = append(s.doneOrder, id)
	}
	var evicted []*entry
	for len(s.doneOrder) > s.MaxDoneResident {
		oldest := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if old, ok := s.sessions[oldest]; ok {
			evicted = append(evicted, old)
			delete(s.sessions, oldest)
		}
	}
	s.mu.Unlock()
	for _, old := range evicted {
		// Belt-and-braces: every state transition already snapshotted, so
		// the newest on-disk frame equals the live state; a failure here
		// loses nothing that was not already durable.
		//lint:ignore errcheck final state is already on disk from the per-operation snapshots
		_ = old.sess.Snapshot()
	}
}

func containsString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// Evict snapshots a session one final time and removes it from the live
// registry. Persisted sessions can be resumed later; evicting a
// store-less session discards its state — allowed here because the caller
// asked, while automatic done-eviction skips them.
func (s *Server) Evict(id string) error {
	s.mu.Lock()
	e, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: session %q: %w", id, ErrUnknownSession)
	}
	delete(s.sessions, id)
	for i, d := range s.doneOrder {
		if d == id {
			s.doneOrder = append(s.doneOrder[:i], s.doneOrder[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	if err := e.sess.Snapshot(); err != nil {
		return fmt.Errorf("serve: evict %s: %w", id, err)
	}
	return nil
}

// ExportBundle is the migration wire format: everything another server
// needs to take over a session — its spec (to rebuild the engine) and
// its Export snapshot frame (base64 under encoding/json), which carries
// the engine checkpoint, the partial-tell ledger and the usage counters
// verbatim.
type ExportBundle struct {
	Spec  SessionSpec `json:"spec"`
	Frame []byte      `json:"frame"`
}

// Export serializes a session for migration and unloads it from the live
// registry, mirroring the eviction path: the registry entry is removed
// under the lock first, so no new request can reach the session while
// its final frame is taken. The returned bundle installs on another
// server via Import; the source's snapshot directory keeps the
// handed-off frame as its newest snapshot, so the session could also be
// resumed here again if the import never happens.
func (s *Server) Export(id string) (*ExportBundle, error) {
	s.mu.Lock()
	e, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: session %q: %w", id, ErrUnknownSession)
	}
	delete(s.sessions, id)
	for i, d := range s.doneOrder {
		if d == id {
			s.doneOrder = append(s.doneOrder[:i], s.doneOrder[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	frame, err := e.sess.Export()
	if err != nil {
		// The session is still healthy in memory — put it back rather
		// than dropping a live run over a serialization failure.
		s.mu.Lock()
		s.register(e.spec, e.sess)
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: export %s: %w", id, err)
	}
	return &ExportBundle{Spec: e.spec, Frame: frame}, nil
}

// Import installs an exported session on this server: the spec is
// validated and persisted exactly as Create would, then the session is
// restored from the bundle's frame — counters, pending ledger and
// partial tells intact — and registered live. Refuses IDs that are
// already live or already persisted here, like Create.
func (s *Server) Import(bundle ExportBundle) (*session.Session, error) {
	return s.install(bundle.Spec, true, bundle.Frame)
}

// Handler returns the API's http.Handler with the request timeout
// applied. Routes:
//
//	POST   /v1/sessions                  create (body: SessionSpec)
//	GET    /v1/sessions                  list session IDs
//	GET    /v1/metrics                   per-session counters + rollup
//	GET    /v1/sessions/{id}             status
//	DELETE /v1/sessions/{id}             final snapshot, then unload
//	POST   /v1/sessions/{id}/ask         next batch, or done/not-ready
//	GET    /v1/sessions/{id}/ask         long-poll ask (?wait=duration)
//	POST   /v1/sessions/{id}/tell        ingest results (body: TellRequest)
//	GET    /v1/sessions/{id}/result      full core.Result JSON
//	GET    /v1/sessions/{id}/pending     in-flight batches + receipt masks
//	GET    /v1/sessions/{id}/metrics     session usage counters
//	GET    /v1/sessions/{id}/snapshots   snapshot file names, oldest first
//	POST   /v1/sessions/{id}/resume      resume a persisted session
//	GET    /v1/sessions/{id}/export      serialize + unload for migration
//	POST   /v1/sessions/import           install an exported session
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/metrics", s.handleServerMetrics)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleEvict)
	mux.HandleFunc("POST /v1/sessions/{id}/ask", s.handleAsk)
	mux.HandleFunc("GET /v1/sessions/{id}/ask", s.handleAskWait)
	mux.HandleFunc("POST /v1/sessions/{id}/tell", s.handleTell)
	mux.HandleFunc("GET /v1/sessions/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/sessions/{id}/pending", s.handlePending)
	mux.HandleFunc("GET /v1/sessions/{id}/metrics", s.handleSessionMetrics)
	mux.HandleFunc("GET /v1/sessions/{id}/snapshots", s.handleSnapshots)
	mux.HandleFunc("POST /v1/sessions/{id}/resume", s.handleResume)
	mux.HandleFunc("GET /v1/sessions/{id}/export", s.handleExport)
	mux.HandleFunc("POST /v1/sessions/import", s.handleImport)
	return http.TimeoutHandler(mux, s.timeout(), `{"error":"request timed out"}`)
}

// TellRequest is the tell body.
type TellRequest struct {
	Results []session.EvalResult `json:"results"`
}

// AskResponse is the ask body: exactly one of Done, Batch or NotReady is
// meaningful. NotReady (HTTP 409) signals that initial-design batches are
// outstanding and the caller should tell results before asking again.
type AskResponse struct {
	Done  bool        `json:"done"`
	Batch *core.Batch `json:"batch,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//lint:ignore errcheck the response is already committed; a failed write has no further destination
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// maxBodyBytes caps the create and tell request bodies (HTTP 413 beyond
// it). A legitimate spec or q-point tell is a few KB; the cap stops a
// broken or hostile client from making the server buffer an unbounded
// body.
const maxBodyBytes = 1 << 20

// maxImportBytes caps an import body: the base64 text of the largest
// frame a store writes (snapshot.MaxFrameBytes), as JSON carries the
// bundle's frame, plus maxBodyBytes for the spec and the JSON around it.
const maxImportBytes = (snapshot.MaxFrameBytes+2)/3*4 + maxBodyBytes

// decodeBody decodes r's JSON body into v, reading at most limit bytes,
// and reports whether it did. A body over the limit, whether its
// Content-Length declares it or reading meets it, is answered 413 and
// any other failure 400, the error naming the body as what.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	var err error
	if r.ContentLength > limit {
		err = &http.MaxBytesError{Limit: limit}
	} else {
		err = json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	}
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, fmt.Errorf("bad %s: %w", what, err))
	return false
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec SessionSpec
	if !decodeBody(w, r, maxBodyBytes, "spec", &spec) {
		return
	}
	sess, err := s.Create(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrExists) {
			code = http.StatusConflict
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, sess.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.IDs())
}

func (s *Server) withSession(w http.ResponseWriter, r *http.Request, fn func(*entry)) {
	e, ok := s.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown session %q", r.PathValue("id")))
		return
	}
	fn(e)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(e *entry) {
		writeJSON(w, http.StatusOK, e.sess.Status())
	})
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(e *entry) {
		b, err := e.sess.Ask(r.Context())
		s.writeAskOutcome(w, e, b, err)
	})
}

// writeAskOutcome maps an Ask/AwaitAsk result onto the wire contract
// shared by the plain and long-poll ask routes, and feeds the eviction
// FIFO when the response reveals completion.
func (s *Server) writeAskOutcome(w http.ResponseWriter, e *entry, b *core.Batch, err error) {
	switch {
	case errors.Is(err, session.ErrDone):
		s.noteDone(e.spec.ID)
		writeJSON(w, http.StatusOK, AskResponse{Done: true})
	case errors.Is(err, core.ErrNoBatchReady):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, AskResponse{Batch: b})
	}
}

// handleAskWait is the long-poll ask: GET with ?wait=<duration> blocks
// until a slot frees up, the run completes, or the wait expires (409,
// same as the plain-ask not-ready contract). The wait is capped half a
// second below the server's request timeout so the TimeoutHandler never
// kills a healthy long-poll mid-flight; no or zero wait degrades to a
// plain ask.
func (s *Server) handleAskWait(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(e *entry) {
		var wait time.Duration
		if q := r.URL.Query().Get("wait"); q != "" {
			d, err := time.ParseDuration(q)
			if err != nil || d < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait %q (want a non-negative Go duration)", q))
				return
			}
			wait = d
		}
		if maxWait := s.timeout() - 500*time.Millisecond; wait > maxWait {
			wait = maxWait
		}
		if wait < 0 {
			wait = 0
		}
		b, err := e.sess.AwaitAsk(r.Context(), wait)
		s.writeAskOutcome(w, e, b, err)
	})
}

func (s *Server) handleTell(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(e *entry) {
		var req TellRequest
		if !decodeBody(w, r, maxBodyBytes, "tell", &req) {
			return
		}
		if err := e.sess.Tell(r.Context(), req.Results); err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		status := e.sess.Status()
		if status.Done {
			s.noteDone(e.spec.ID)
		}
		writeJSON(w, http.StatusOK, status)
	})
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Evict(id); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrUnknownSession) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"evicted": id})
}

func (s *Server) handleSessionMetrics(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(e *entry) {
		writeJSON(w, http.StatusOK, e.sess.Metrics())
	})
}

func (s *Server) handleServerMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(e *entry) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		//lint:ignore errcheck the response is already committed; a failed write has no further destination
		e.sess.Result().WriteJSON(w)
	})
}

func (s *Server) handlePending(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(e *entry) {
		writeJSON(w, http.StatusOK, e.sess.PendingWork())
	})
}

func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(e *entry) {
		paths, err := e.sess.Snapshots()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		names := make([]string, len(paths))
		for i, p := range paths {
			names[i] = filepath.Base(p)
		}
		writeJSON(w, http.StatusOK, names)
	})
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Resume(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.Status())
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	bundle, err := s.Export(r.PathValue("id"))
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrUnknownSession) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, bundle)
}

func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	var bundle ExportBundle
	if !decodeBody(w, r, maxImportBytes, "bundle", &bundle) {
		return
	}
	sess, err := s.Import(bundle)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrExists) {
			code = http.StatusConflict
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusCreated, sess.Status())
}

// ErrExists reports a create under an ID that is already live; handlers
// map it to HTTP 409.
var ErrExists = errors.New("session already exists")

// ErrUnknownSession reports an operation against an ID that is not in the
// live registry; handlers map it to HTTP 404.
var ErrUnknownSession = errors.New("unknown session")

// ServerMetrics is the /v1/metrics body: counter totals across every live
// session plus the per-session breakdown, sorted by ID.
type ServerMetrics struct {
	Sessions         int   `json:"sessions"`
	DoneSessions     int   `json:"done_sessions"`
	Asks             int64 `json:"asks"`
	Tells            int64 `json:"tells"`
	Pending          int   `json:"pending"`
	FantasyFallbacks int   `json:"fantasy_fallbacks"`
	Snapshots        int64 `json:"snapshots"`
	SnapshotBytes    int64 `json:"snapshot_bytes"`

	PerSession []session.Metrics `json:"per_session,omitempty"`
}

// Metrics aggregates usage counters across the live registry. Evicted
// sessions drop out of the rollup — the counters describe resident load,
// not lifetime history.
func (s *Server) Metrics() ServerMetrics {
	var out ServerMetrics
	for _, id := range s.IDs() {
		e, ok := s.get(id)
		if !ok {
			continue
		}
		m := e.sess.Metrics()
		out.Sessions++
		if m.Done {
			out.DoneSessions++
		}
		out.Asks += m.Asks
		out.Tells += m.Tells
		out.Pending += m.Pending
		out.FantasyFallbacks += m.FantasyFallbacks
		out.Snapshots += m.Snapshots
		out.SnapshotBytes += m.SnapshotBytes
		out.PerSession = append(out.PerSession, m)
	}
	return out
}
