package gp

import (
	"errors"
	"testing"

	"repro/internal/surrogate"
	"repro/internal/testutil"
)

// TestPredictAllocs pins the posterior hot path at zero steady-state
// allocations: after the first call warms the per-model workspace pool,
// PredictWithGrad must not touch the heap, with or without gradients. This is the
// acceptance gate for the destination-passing refactor (DESIGN.md §9) —
// these calls dominate the inner acquisition-maximization loop.
func TestPredictAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	X, y, cfg := benchData(64)
	g, err := Fit(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := X[7]
	dMu := make([]float64, len(x))
	dSD := make([]float64, len(x))
	// Warm the workspace pool before counting.
	g.PredictWithGrad(x, nil, nil)
	g.PredictWithGrad(x, dMu, dSD)

	if got := testing.AllocsPerRun(200, func() {
		g.PredictWithGrad(x, dMu, dSD)
	}); got > 0 {
		t.Fatalf("gp.PredictWithGrad allocates %v times per call, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		g.PredictWithGrad(x, nil, nil)
	}); got > 0 {
		t.Fatalf("value-only gp.PredictWithGrad allocates %v times per call, want 0", got)
	}
	// L-BFGS's accepted step: the value-only trial, then the gradient
	// request that reuses its value half.
	if got := testing.AllocsPerRun(200, func() {
		g.PredictWithGrad(x, nil, nil)
		g.PredictWithGrad(x, dMu, dSD)
	}); got > 0 {
		t.Fatalf("gp.PredictWithGrad's trial and accepted gradient allocate %v times, want 0", got)
	}
}

// TestFitObjectiveAllocs pins the pooled fit workspace: once a workspace
// has been sized for a data set, evaluating the LML objective through it
// must not touch the heap. Every L-BFGS iteration of every restart pays
// this cost, so a regression here multiplies across the whole fit. The
// small n keeps both the Gram fill and the gradient trace on their
// serial branches — the parallel branches allocate goroutine machinery
// by design and are covered by the bit-identity tests instead.
func TestFitObjectiveAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	X, y, cfg := benchData(64)
	g, err := Fit(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := append([]float64(nil), g.warmParams...)
	ws := fitWorkspaceFor(g, g.x, len(p))
	// Warm: the first evaluation settles any lazily grown buffer.
	if _, _, err := ws.logMarginalLikelihood(g.x, g.ys, p); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, _, err := ws.logMarginalLikelihood(g.x, g.ys, p); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Fatalf("fit objective allocates %v times per evaluation, want 0", got)
	}
	// The L-BFGS objective's two steady-state calls: a value-only trial,
	// then the gradient of the accepted trial on the pass it left.
	grad := make([]float64, len(p))
	if got := testing.AllocsPerRun(100, func() {
		ws.negLML(g.x, g.ys, p, nil)
		ws.negLML(g.x, g.ys, p, grad)
	}); got > 0 {
		t.Fatalf("fit objective's trial and accepted gradient allocate %v times, want 0", got)
	}
}

// TestPredictJointEmptyBatch checks the surrogate contract: an empty
// batch is a caller error reported as a wrapped surrogate.ErrEmptyBatch,
// not a panic (the pre-refactor behavior was an index panic inside the
// joint covariance assembly).
func TestPredictJointEmptyBatch(t *testing.T) {
	X, y, cfg := benchData(32)
	g, err := Fit(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.PredictJoint(nil); !errors.Is(err, surrogate.ErrEmptyBatch) {
		t.Fatalf("gp.PredictJoint(nil) err = %v, want ErrEmptyBatch", err)
	}
	if _, err := g.PredictJoint([][]float64{}); !errors.Is(err, surrogate.ErrEmptyBatch) {
		t.Fatalf("gp.PredictJoint(empty) err = %v, want ErrEmptyBatch", err)
	}
}
