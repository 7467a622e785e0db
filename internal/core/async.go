package core

import "repro/internal/surrogate"

// This file holds Ask's in-flight side. In asynchronous mode
// (Engine.Mode = Asynchronous) every cycle proposes exactly one point,
// up to BatchSize points are in flight at once, and a replacement Ask
// becomes available the moment any Tell lands — the aphBO-2GP-3B
// schedule. A synchronous cycle has nothing in flight when it is asked.
// Points that are still busy when a new proposal is made are treated as
// Kriging-Believer fantasy observations (Ginsbourger et al.); a fantasy
// that cannot be formed (a failed Cholesky extension) is skipped, as the
// KB and mic strategies skip theirs, and the cycle is counted in
// FantasyFallbacks.

// inFlightPoints counts asked-but-untold points across the pending ledger.
func (at *AskTell) inFlightPoints() int {
	n := 0
	for _, id := range at.order {
		n += len(at.pending[id].batch.Points)
	}
	return n
}

// busyPoints flattens the pending ledger's points in ask order — the
// deterministic conditioning order for fantasy chains.
func (at *AskTell) busyPoints() [][]float64 {
	if len(at.order) == 0 {
		return nil
	}
	out := make([][]float64, 0, len(at.order))
	for _, id := range at.order {
		out = append(out, at.pending[id].batch.Points...)
	}
	return out
}

// conditionOnBusy returns the acquisition model for a replacement
// proposal: the current surrogate conditioned on every busy point via a
// Kriging-Believer fantasy chain (each busy point believed at its own
// posterior mean, in ask order). A link that cannot fantasize — a
// degenerate Cholesky extension — is skipped and the chain goes on from
// the last model, as KB-q-EGO's and mic-q-EGO's chains do; a cycle that
// skipped any link is counted once in FantasyFallbacks.
func (at *AskTell) conditionOnBusy(busy [][]float64) surrogate.Surrogate {
	cur, skipped := at.model, false
	for _, x := range busy {
		mu, _ := cur.PredictWithGrad(x, nil, nil)
		fm, err := cur.Fantasize(x, mu)
		if err != nil {
			skipped = true
			continue
		}
		cur = fm
	}
	if skipped {
		at.fantasyFallbacks++
	}
	return cur
}

// FantasyFallbacks reports how many asynchronous proposals skipped a busy
// point whose fantasy could not be formed. Zero for synchronous runs, and
// for the exact GP unless a fantasy's Cholesky extension fails.
func (at *AskTell) FantasyFallbacks() int { return at.fantasyFallbacks }

// Mode reports the engine's protocol mode.
func (at *AskTell) Mode() Mode { return at.cfg.Mode }
