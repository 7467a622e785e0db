package gp

import (
	"math"
	"sync"
	"testing"
)

// oneWorkspace returns a copy of g whose pool hands out only ws, so every
// call on the copy — PredictWithGrad, PredictJoint, Fantasize — runs on
// that one workspace, whatever the pool would otherwise recycle.
func oneWorkspace(g *GP) (*GP, *predictWorkspace) {
	ws := g.ws.New().(*predictWorkspace)
	c := *g
	c.ws = &sync.Pool{New: func() any { return ws }}
	return &c, ws
}

// checkPredict calls c.PredictWithGrad at x — with gradient buffers when
// grad holds, value-only otherwise — and fails unless every result equals
// the same call on a copy of g with a pool of its own bit for bit.
func checkPredict(t *testing.T, label string, g, c *GP, x []float64, grad bool) {
	t.Helper()
	var dMean, dSD, wantDMean, wantDSD []float64
	if grad {
		dMean, dSD = make([]float64, g.d), make([]float64, g.d)
		wantDMean, wantDSD = make([]float64, g.d), make([]float64, g.d)
	}
	fresh := *g
	fresh.initWorkspacePool()
	wantMu, wantSD := fresh.PredictWithGrad(x, wantDMean, wantDSD)
	mu, sd := c.PredictWithGrad(x, dMean, dSD)
	if math.Float64bits(mu) != math.Float64bits(wantMu) || math.Float64bits(sd) != math.Float64bits(wantSD) {
		t.Fatalf("%s at %v: (%v, %v), fresh call (%v, %v)", label, x, mu, sd, wantMu, wantSD)
	}
	for j := range dMean {
		if math.Float64bits(dMean[j]) != math.Float64bits(wantDMean[j]) || math.Float64bits(dSD[j]) != math.Float64bits(wantDSD[j]) {
			t.Fatalf("%s at %v: gradient[%d] (%v, %v), fresh call (%v, %v)", label, x, j, dMean[j], dSD[j], wantDMean[j], wantDSD[j])
		}
	}
}

// TestPredictWithGradReuseBits pins PredictWithGrad's reuse of a value
// pass: after a value-only call at p, a gradient request at p reuses the
// value half and one at q does not, and a value-only call at another
// point, a PredictJoint or a Fantasize on the workspace in between makes
// the request at p compute afresh. Every result equals a fresh call bit for bit, at random points,
// at a training point (where the variance clamp acts) and far from the
// data.
func TestPredictWithGradReuseBits(t *testing.T) {
	g, probes := clampFixture(t)
	q := probes[1]
	between := []struct {
		label string
		run   func(c *GP)
	}{
		{"hit", func(*GP) {}},
		{"after a value-only call at another point", func(c *GP) { c.PredictWithGrad(q, nil, nil) }},
		{"after PredictJoint", func(c *GP) {
			if _, err := c.PredictJoint([][]float64{q, probes[2]}); err != nil {
				t.Fatal(err)
			}
		}},
		{"after Fantasize", func(c *GP) {
			if _, err := c.Fantasize(q, 0.5); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, p := range [][]float64{probes[0], probes[45], probes[len(probes)-1]} {
		for _, b := range between {
			c, _ := oneWorkspace(g)
			checkPredict(t, b.label+": value-only", g, c, p, false)
			b.run(c)
			checkPredict(t, b.label+": gradient", g, c, p, true)
		}
		c, _ := oneWorkspace(g)
		checkPredict(t, "miss: value-only", g, c, p, false)
		checkPredict(t, "miss: gradient", g, c, q, true)
	}

	// Driven on one workspace: the value half runs once for the pair. k★
	// is written only by the value half and never read by the gradient
	// half, so a poisoned k★ that survives the gradient request shows the
	// request reused the pass; a second gradient request at p computes
	// afresh and overwrites it.
	p := probes[0]
	c, ws := oneWorkspace(g)
	checkPredict(t, "value-only on one workspace", g, c, p, false)
	ws.ks[0] = math.NaN()
	checkPredict(t, "hit on one workspace", g, c, p, true)
	if !math.IsNaN(ws.ks[0]) {
		t.Fatal("the value half ran again for a gradient request at the value-only call's point")
	}
	checkPredict(t, "repeated gradient request", g, c, p, true)
	if math.IsNaN(ws.ks[0]) {
		t.Fatal("a gradient request after a gradient call reused the value half")
	}
}

// FuzzPredictWithGradReuse drives one workspace through a byte-derived
// sequence of calls at four points — value-only and gradient
// PredictWithGrad, PredictJoint and Fantasize — and checks every
// PredictWithGrad result against a fresh call bit for bit. The points are
// few, so value-only calls are often followed by a gradient request at
// the same point. Each byte is one call: its low three bits pick the kind,
// the rest the point.
func FuzzPredictWithGradReuse(f *testing.F) {
	g, probes := clampFixture(f)
	pts := [][]float64{probes[0], probes[1], probes[45], probes[len(probes)-1]}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		c, _ := oneWorkspace(g)
		for _, op := range ops {
			x := pts[int(op>>3)%len(pts)]
			switch op & 7 {
			case 0, 1, 4:
				checkPredict(t, "value-only", g, c, x, false)
			case 2, 3:
				checkPredict(t, "gradient", g, c, x, true)
			case 5:
				// A pair of equal points is a singular covariance; an error
				// still ran the fill on the workspace.
				if _, err := c.PredictJoint([][]float64{x, pts[1]}); err != nil {
					continue
				}
			case 6:
				if _, err := c.Fantasize(x, 0.25); err != nil {
					continue
				}
			case 7:
				// L-BFGS's accepted step: the trial, then its gradient.
				checkPredict(t, "trial", g, c, x, false)
				checkPredict(t, "accepted gradient", g, c, x, true)
			}
		}
	})
}
