package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/session"
)

// FleetRunner is the remote scenario.DayRunner: each rolling-horizon
// cell becomes a pboserver session, created (or re-attached) under a
// deterministic ID, driven with long-poll asks, evaluated client-side
// and told back. Because the session ID, the problem and the engine seed
// are all pure functions of (fleet ID, member, day), a fleet that dies
// mid-year resumes by simply re-running: completed days re-create (or
// resume) deterministically to the same results, in-flight days
// re-attach to the server's live state via the pending-work receipt
// masks, and sessions migrated to another server continue there.
type FleetRunner struct {
	// Client drives the target server.
	Client *Client
	// FleetID prefixes all session IDs of this fleet; it must match
	// [A-Za-z0-9._-]+.
	FleetID string
	// Evict unloads every finished day session from the server's live
	// registry (persisted servers can still resume them). Year-long
	// fleets set it to bound server residency at one live session per
	// in-flight member.
	Evict bool
}

// fleetWait is the long-poll wait per ask round; the server caps it
// below its own request timeout.
const fleetWait = 30 * time.Second

// SessionID returns the deterministic session name of one cell.
func (f *FleetRunner) SessionID(member, day int) string {
	return fmt.Sprintf("%s-m%03d-d%03d", f.FleetID, member, day)
}

// sessionSpec assembles the create-session request of one cell.
func (f *FleetRunner) sessionSpec(spec *scenario.DaySpec, opt scenario.OptConfig) SessionSpec {
	opt = opt.Defaulted()
	return SessionSpec{
		ID:             f.SessionID(spec.Member, spec.Day),
		Problem:        ProblemSpec{Kind: "scenario", Scenario: spec, SimLatencyNS: int64(spec.SimLatencyNS)},
		Strategy:       opt.Strategy,
		Mode:           opt.Mode,
		BatchSize:      opt.BatchSize,
		InitSamples:    opt.InitSamples,
		MaxCycles:      opt.MaxCycles,
		OverheadFactor: opt.OverheadFactor,
		Seed:           opt.Seed,
		Model:          opt.Model,
	}
}

// attach brings the cell's session live: attach to a running one, resume
// a persisted one, or create it fresh. The returned status is current.
func (f *FleetRunner) attach(ctx context.Context, spec *scenario.DaySpec, opt scenario.OptConfig) (session.Status, error) {
	id := f.SessionID(spec.Member, spec.Day)
	st, err := f.Client.Status(ctx, id)
	if err == nil {
		if st.Problem != spec.ProblemName() {
			return st, fmt.Errorf("serve: fleet session %s holds problem %q, want %q (fleet ID collision?)", id, st.Problem, spec.ProblemName())
		}
		return st, nil
	}
	if StatusCode(err) != http.StatusNotFound {
		return st, err
	}
	// Unknown to the live registry: a persisted snapshot may still hold
	// it (the session was evicted, or the server restarted).
	if st, rerr := f.Client.Resume(ctx, id); rerr == nil {
		return st, nil
	}
	st, err = f.Client.Create(ctx, f.sessionSpec(spec, opt))
	if err == nil {
		return st, nil
	}
	// A concurrent attach (or a resume racing the create) may have won;
	// fall back to the now-live session.
	if StatusCode(err) == http.StatusConflict {
		return f.Client.Status(ctx, id)
	}
	return st, err
}

// recover evaluates and tells every unreceived member of the session's
// in-flight batches — the attach path of a fleet that died between ask
// and tell. Results go back in (batch, member) order, the same order a
// live run would have told them.
func (f *FleetRunner) recover(ctx context.Context, id string, cons *scenario.Constrained) error {
	pending, err := f.Client.PendingWork(ctx, id)
	if err != nil {
		return err
	}
	for _, pb := range pending {
		var results []session.EvalResult
		for m, got := range pb.Received {
			if got {
				continue
			}
			y, cost := cons.Eval(pb.Batch.Points[m])
			results = append(results, session.EvalResult{
				BatchID: pb.Batch.ID, Member: m, Y: y, CostNS: int64(cost),
			})
		}
		if len(results) == 0 {
			continue
		}
		if _, err := f.Client.Tell(ctx, id, results); err != nil {
			return err
		}
	}
	return nil
}

// RunDay implements scenario.DayRunner: attach, recover in-flight work,
// then drive ask/evaluate/tell rounds until the session reports done,
// and fetch the result. Each round long-polls one batch, drains every
// further batch the session will hand out without waiting (asynchronous
// sessions expose up to BatchSize in-flight slots), evaluates the round
// locally and tells all of it in one request, in ask order — a
// deterministic schedule, so a re-driven session replays bit-identically,
// and the same engine calls as one tell per batch with fewer round trips
// and snapshot writes.
func (f *FleetRunner) RunDay(ctx context.Context, spec *scenario.DaySpec, opt scenario.OptConfig) (*core.Result, error) {
	_, cons, err := spec.Build()
	if err != nil {
		return nil, err
	}
	id := f.SessionID(spec.Member, spec.Day)
	st, err := f.attach(ctx, spec, opt)
	if err != nil {
		return nil, err
	}
	if !st.Done {
		if err := f.recover(ctx, id, cons); err != nil {
			return nil, err
		}
		if err := f.drive(ctx, id, cons); err != nil {
			return nil, err
		}
	}
	res, err := f.Client.Result(ctx, id)
	if err != nil {
		return nil, err
	}
	if f.Evict {
		if err := f.Client.Evict(ctx, id); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (f *FleetRunner) drive(ctx context.Context, id string, cons *scenario.Constrained) error {
	for {
		b, done, err := f.Client.AskWait(ctx, id, fleetWait)
		if done {
			return nil
		}
		if errors.Is(err, ErrNotReady) {
			// The long poll expired with every slot still occupied —
			// only possible when another driver owns the in-flight
			// work; poll again.
			continue
		}
		if err != nil {
			return err
		}
		round := []*core.Batch{b}
		for {
			nb, ndone, nerr := f.Client.Ask(ctx, id)
			if ndone || errors.Is(nerr, ErrNotReady) {
				break
			}
			if nerr != nil {
				return nerr
			}
			round = append(round, nb)
		}
		// One tell per round: the session forwards completed batches in
		// ask order whatever the grouping, so the engine sees the calls a
		// tell per batch would make, with one round trip and one durable
		// write per round.
		if _, err := f.Client.Tell(ctx, id, roundResults(round, cons)); err != nil {
			return err
		}
	}
}

// roundResults evaluates every member of a round's batches and returns
// the results in ask order.
func roundResults(round []*core.Batch, cons *scenario.Constrained) []session.EvalResult {
	var results []session.EvalResult
	for _, b := range round {
		for m, x := range b.Points {
			y, cost := cons.Eval(x)
			results = append(results, session.EvalResult{BatchID: b.ID, Member: m, Y: y, CostNS: int64(cost)})
		}
	}
	return results
}
