package optim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// MultiStart runs a local optimizer from several starting points and
// returns the best result. The starts run through parallel.Compute: on
// the caller, plus whatever helpers the process-wide budget lends, so a
// multi-start nested in a busy fleet member or inside another fan-out
// runs inline instead of oversubscribing the host. The winner is
// selected deterministically (value, then start index), and each start's
// search depends only on its own objective, so the result is
// bit-identical however many starts ran at once.
type MultiStart struct {
	// Local is the local optimizer (required).
	Local *LBFGSB
}

// Run minimizes from the given starting points within the box [lo, hi].
// For each start i it calls objective(i, search) on the goroutine that
// runs the start, and objective calls search exactly once with start i's
// objective; the local search runs inside that call. Whatever an
// objective needs only while its start runs — a pooled workspace — is
// taken before the call and given back after it, so the number of live
// scratch sets is bounded by the starts actually running. Callers whose
// objective is safe for concurrent use pass Shared(f).
//
// When ctx is cancelled mid-run, starts that have not begun are skipped and
// the best result among the completed starts is returned; if no start
// completed, the result carries F = +Inf and the first start point. Run
// itself does not return an error — partial restarts are still a valid
// (if weaker) acquisition answer; callers that need to distinguish check
// ctx.Err() themselves.
func (m *MultiStart) Run(ctx context.Context, objective func(start int, search func(GradObjective)), starts [][]float64, lo, hi []float64) Result {
	if len(starts) == 0 {
		panic("optim: MultiStart requires at least one starting point")
	}
	if m.Local == nil {
		panic("optim: MultiStart requires a local optimizer")
	}
	results := make([]Result, len(starts))
	completed := make([]bool, len(starts))
	if err := parallel.Compute(ctx, 0, len(starts), func(i int) {
		objective(i, func(f GradObjective) {
			results[i] = m.Local.Minimize(f, starts[i], lo, hi)
			completed[i] = true
		})
	}); err != nil {
		// Cancelled: fall through and rank whatever completed.
	}
	var best Result
	haveBest := false
	evals, iters := 0, 0
	for _, r := range results {
		evals += r.Evals
		iters += r.Iters
	}
	for i, r := range results {
		if !completed[i] {
			continue
		}
		if !haveBest || r.F < best.F {
			best = r
			haveBest = true
		}
	}
	if !haveBest {
		best = Result{X: mat.CloneVec(starts[0]), F: math.Inf(1)}
	}
	best.Evals = evals
	best.Iters = iters
	return best
}

// Shared is the objective argument of MultiStart.Run for one objective
// that every start may call at once.
func Shared(f GradObjective) func(start int, search func(GradObjective)) {
	return func(_ int, search func(GradObjective)) { search(f) }
}

// DefaultStarts builds a standard multi-start set: nSobol quasi-random
// points in the box plus small Gaussian perturbations of the provided
// anchors (e.g. the incumbent best or the best observed points), clamped to
// the box.
func DefaultStarts(nSobol int, anchors [][]float64, lo, hi []float64, stream *rng.Stream) [][]float64 {
	if nSobol < 0 {
		panic(fmt.Sprintf("optim: negative Sobol start count %d", nSobol))
	}
	starts := rng.SobolDesign(nSobol, lo, hi, stream)
	for _, a := range anchors {
		p := mat.CloneVec(a)
		for j := range p {
			p[j] += 0.05 * (hi[j] - lo[j]) * stream.Norm()
		}
		clampToBox(p, lo, hi)
		starts = append(starts, p)
	}
	return starts
}
