package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/core"
	"repro/internal/session"
)

// Client drives a pboserver over HTTP. The zero HTTPClient means
// http.DefaultClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (nil: http.DefaultClient).
	HTTPClient *http.Client
}

// ErrNotReady mirrors core.ErrNoBatchReady across the wire: the server
// has outstanding initial-design batches and cannot hand out more work
// until their results are told.
var ErrNotReady = core.ErrNoBatchReady

// HTTPError is a non-2xx server response with its decoded error body.
// Clients that branch on the status — the fleet runner's attach protocol
// distinguishes "unknown session" (404, create it) from "already exists"
// (409, attach to it) — unwrap it with errors.As.
type HTTPError struct {
	// Code is the HTTP status code.
	Code int
	// Message is the server's error body.
	Message string
}

// Error implements error.
func (e *HTTPError) Error() string { return fmt.Sprintf("%d: %s", e.Code, e.Message) }

// StatusCode reports err's HTTP status, or 0 when err carries none.
func StatusCode(err error) int {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Code
	}
	return 0
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one JSON request; a non-nil out receives the decoded 2xx
// body. Non-2xx responses decode the server's error body into the
// returned error.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("serve client: %w", err)
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("serve client: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("serve client: %s %s: %w", method, path, err)
	}
	defer func() {
		//lint:ignore errcheck response body close failures carry no information after a full read
		_ = resp.Body.Close()
	}()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("serve client: %s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg := string(raw)
		var eb errorBody
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return fmt.Errorf("serve client: %s %s: %w", method, path, &HTTPError{Code: resp.StatusCode, Message: msg})
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("serve client: %s %s: decode: %w", method, path, err)
	}
	return nil
}

// Create registers a new session and returns its initial status.
func (c *Client) Create(ctx context.Context, spec SessionSpec) (session.Status, error) {
	var st session.Status
	err := c.do(ctx, http.MethodPost, "/v1/sessions", &spec, &st)
	return st, err
}

// List returns the live session IDs.
func (c *Client) List(ctx context.Context) ([]string, error) {
	var ids []string
	err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &ids)
	return ids, err
}

// Status fetches a session's progress summary.
func (c *Client) Status(ctx context.Context, id string) (session.Status, error) {
	var st session.Status
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id, nil, &st)
	return st, err
}

// Ask requests the next batch. done=true reports run completion; a nil
// batch with ErrNotReady means initial-design results are outstanding.
func (c *Client) Ask(ctx context.Context, id string) (b *core.Batch, done bool, err error) {
	return c.ask(ctx, http.MethodPost, "/v1/sessions/"+id+"/ask")
}

// askWaitMargin pads the client-side deadline of a long poll past the
// requested wait: the server must get the chance to answer an expired
// wait itself (409, like a plain not-ready ask) before the client's
// transport gives up on it.
const askWaitMargin = 2 * time.Second

// AskWait long-polls for the next batch: the server holds the request up
// to wait until a slot frees (asynchronous sessions free one on every
// tell) instead of making the caller spin on ErrNotReady. Semantics
// otherwise match Ask; the server caps wait below its request timeout.
// A negative wait degrades to a plain ask (wait 0) instead of bouncing
// off the server's validation. A wait that would outlive an injected
// HTTPClient.Timeout is clamped to fit under it, so the server answers
// the expired poll with a clean 409 (ErrNotReady) instead of the
// transport killing it mid-wait with an opaque error; the request also
// carries its own context deadline of wait plus a fixed margin, bounding
// the poll even under the default transport.
func (c *Client) AskWait(ctx context.Context, id string, wait time.Duration) (b *core.Batch, done bool, err error) {
	if wait < 0 {
		wait = 0
	}
	if t := c.httpClient().Timeout; t > 0 && wait+askWaitMargin > t {
		wait = t - askWaitMargin
		if wait < 0 {
			wait = 0
		}
	}
	ctx, cancel := context.WithTimeout(ctx, wait+askWaitMargin)
	defer cancel()
	return c.ask(ctx, http.MethodGet, "/v1/sessions/"+id+"/ask?wait="+url.QueryEscape(wait.String()))
}

// ask is the request and reply path Ask and AskWait share: a 409 answer
// is ErrNotReady, any other failure do's error.
func (c *Client) ask(ctx context.Context, method, path string) (*core.Batch, bool, error) {
	var ar AskResponse
	err := c.do(ctx, method, path, nil, &ar)
	if StatusCode(err) == http.StatusConflict {
		return nil, false, fmt.Errorf("serve client: %s %s: %w", method, path, ErrNotReady)
	}
	if err != nil {
		return nil, false, err
	}
	return ar.Batch, ar.Done, nil
}

// Tell submits evaluated members and returns the refreshed status.
func (c *Client) Tell(ctx context.Context, id string, results []session.EvalResult) (session.Status, error) {
	var st session.Status
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/tell", &TellRequest{Results: results}, &st)
	return st, err
}

// Result fetches the full run result.
func (c *Client) Result(ctx context.Context, id string) (*core.Result, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/sessions/"+id+"/result", nil)
	if err != nil {
		return nil, fmt.Errorf("serve client: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve client: result %s: %w", id, err)
	}
	defer func() {
		//lint:ignore errcheck response body close failures carry no information after a full read
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		raw, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			raw = []byte(rerr.Error())
		}
		return nil, fmt.Errorf("serve client: result %s: %d: %s", id, resp.StatusCode, raw)
	}
	return core.ReadResultJSON(resp.Body)
}

// PendingWork fetches the in-flight batches with their receipt masks —
// the post-resume recovery protocol.
func (c *Client) PendingWork(ctx context.Context, id string) ([]session.PendingBatch, error) {
	var pw []session.PendingBatch
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/pending", nil, &pw)
	return pw, err
}

// Snapshots lists the session's snapshot file names, oldest first.
func (c *Client) Snapshots(ctx context.Context, id string) ([]string, error) {
	var names []string
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/snapshots", nil, &names)
	return names, err
}

// Resume brings a persisted session back into the live registry.
func (c *Client) Resume(ctx context.Context, id string) (session.Status, error) {
	var st session.Status
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/resume", nil, &st)
	return st, err
}

// Metrics fetches one session's usage counters.
func (c *Client) Metrics(ctx context.Context, id string) (session.Metrics, error) {
	var m session.Metrics
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/metrics", nil, &m)
	return m, err
}

// ServerMetrics fetches the whole-server counter rollup.
func (c *Client) ServerMetrics(ctx context.Context) (ServerMetrics, error) {
	var m ServerMetrics
	err := c.do(ctx, http.MethodGet, "/v1/metrics", nil, &m)
	return m, err
}

// Evict snapshots a session one final time and unloads it from the live
// registry; persisted sessions can be resumed later.
func (c *Client) Evict(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// Export serializes a session for migration and unloads it from the
// server's live registry. The bundle installs on another server via
// Import; until then the source's snapshot directory still holds the
// exported state, so the session is never in fewer than one place.
func (c *Client) Export(ctx context.Context, id string) (ExportBundle, error) {
	var bundle ExportBundle
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/export", nil, &bundle)
	return bundle, err
}

// Import installs an exported session on the target server and returns
// its status there.
func (c *Client) Import(ctx context.Context, bundle ExportBundle) (session.Status, error) {
	var st session.Status
	err := c.do(ctx, http.MethodPost, "/v1/sessions/import", &bundle, &st)
	return st, err
}

// Migrate moves a session from this client's server to dst: export here
// (which unloads it from the source), import there. On an import failure
// the bundle is lost from neither side — the source's snapshot directory
// keeps the exported frame, so the session can be resumed at the source.
func (c *Client) Migrate(ctx context.Context, id string, dst *Client) (session.Status, error) {
	bundle, err := c.Export(ctx, id)
	if err != nil {
		return session.Status{}, err
	}
	st, err := dst.Import(ctx, bundle)
	if err != nil {
		return session.Status{}, fmt.Errorf("serve client: migrate %s: %w", id, err)
	}
	return st, nil
}
