package scenario

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/gp"
	"repro/internal/rng"
	"repro/internal/strategy"
	"repro/internal/surrogate"
)

// objectiveLengthscales is the constrained composite with the objective
// GP's lengthscales handed out by a method of its own: the same
// posterior and the same probability of feasibility.
type objectiveLengthscales struct {
	*constrainedSurrogate
	obj *gp.GP
}

func (m objectiveLengthscales) Lengthscales() []float64 { return m.obj.Lengthscales() }

// TestTuRBOTrustRegionOverConstrainedComposite: the composite a
// constrained cell hands its strategy gives TuRBO the objective GP's ARD
// lengthscales, so TuRBO shapes its trust region over the composite as
// over the objective GP, not as an isotropic box, and proposes the same
// batch bit for bit.
func TestTuRBOTrustRegionOverConstrainedComposite(t *testing.T) {
	spec := &DaySpec{Gen: GenConfig{Seed: 3, Members: 1}, Day: 1, Horizon: 1}
	prob, cons, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := &core.State{Problem: prob}
	stream := rng.New(11, 3)
	for i := 0; i < 40; i++ {
		x := stream.UniformVec(prob.Lo, prob.Hi)
		y, _ := cons.Eval(x)
		st.Observe([][]float64{x}, []float64{y})
	}
	f := NewConstrainedFactory(cons, gp.Config{Lo: prob.Lo, Hi: prob.Hi, Restarts: 1, MaxIter: 10, Seed: 11}, 3)
	m, err := f.Fit(context.Background(), st, 1)
	if err != nil {
		t.Fatal(err)
	}
	cs := m.(*constrainedSurrogate)
	obj := cs.Surrogate.(*gp.GP)
	// The objective GP is anisotropic, so an isotropic box is another
	// trust region.
	ls := obj.Lengthscales()
	if math.Abs(ls[0]-ls[1]) < 1e-3*ls[0] {
		t.Fatalf("fixture lengthscales %v are close to isotropic", ls)
	}
	propose := func(model surrogate.Surrogate) [][]float64 {
		t.Helper()
		batch, err := strategy.NewTuRBO().Propose(context.Background(), model, st, 4, rng.New(5, 5))
		if err != nil {
			t.Fatal(err)
		}
		return batch
	}
	want := propose(objectiveLengthscales{constrainedSurrogate: cs, obj: obj})
	got := propose(cs)
	for i := range want {
		for j := range want[i] {
			if !fp.Exact(got[i][j], want[i][j]) {
				t.Fatalf("point %d, dim %d: %v over the composite, %v with the objective GP's lengthscales", i, j, got[i][j], want[i][j])
			}
		}
	}
}
