package gp

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/fp"
	"repro/internal/mat"
)

// fitWorkspaceFor builds a fit workspace sized for evaluating the
// marginal likelihood of g over x with np packed hyperparameters.
func fitWorkspaceFor(g *GP, x *mat.Dense, np int) *fitWorkspace {
	if np != g.kern.NumParams()+1 {
		panic("fitWorkspaceFor: fixtures fit the noise")
	}
	ws := new(fitWorkspace)
	ws.ensure(x.Rows(), g.d, g.cfg.Noise)
	return ws
}

// fitFixture builds a fitted GP over n synthetic points plus a
// hyperparameter vector at which to probe the LML.
func fitFixture(t *testing.T, n int) (*GP, []float64) {
	t.Helper()
	X, y, cfg := benchData(n)
	g, err := Fit(X, y, cfg)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	p := make([]float64, 0, g.kern.NumParams()+1)
	p = append(p, 0.1)
	for i := 0; i < g.d; i++ {
		p = append(p, math.Log(0.35))
	}
	p = append(p, math.Log(2e-4))
	return g, p
}

// TestGramIntoMatchesPerPair: the batched Gram fill must reproduce the
// per-pair kern.Eval loop it replaced exactly — fp.Exact, not tolerance —
// including the noise on the diagonal, and its strict upper triangle must
// hold each off-diagonal pair's radial derivative at the cell radialRow
// names (the last i cells of row n−1−i for row i). This is the exactness
// contract that makes the fill (and with it every golden trace) safe at
// all sizes.
func TestGramIntoMatchesPerPair(t *testing.T) {
	g, p := fitFixture(t, 40)
	g.applyParams(p)
	n := g.x.Rows()

	got := gramInto(g.kern, g.noise, mat.NewDense(n, n, nil), g.x)
	kv, dphi := make([]float64, 1), make([]float64, 1)
	for i := 0; i < n; i++ {
		xi := g.x.Row(i)
		for j := 0; j <= i; j++ {
			want := g.kern.Eval(xi, g.x.Row(j))
			if i == j {
				want += g.noise
			}
			if !fp.Exact(got.At(i, j), want) {
				t.Fatalf("gram[%d][%d] = %v, want %v", i, j, got.At(i, j), want)
			}
			if i == j {
				continue
			}
			g.kern.EvalRowRadial(kv, dphi, xi, g.x.Row(j))
			if r, c := n-1-i, n-i+j; !fp.Exact(got.At(r, c), dphi[0]) {
				t.Fatalf("radial derivative of pair (%d,%d) at [%d][%d] = %v, want %v", i, j, r, c, got.At(r, c), dphi[0])
			}
		}
	}
}

// TestGramIntoParallelBitIdentity forces gramInto down its banded
// parallel branch on a small fixture and checks it reproduces the serial
// branch byte for byte at GOMAXPROCS 1 and 8: the row partition depends
// only on n, and a band writes only its own rows' Gram values and radial
// derivatives.
func TestGramIntoParallelBitIdentity(t *testing.T) {
	g, p := fitFixture(t, 56)
	g.applyParams(p)
	n := g.x.Rows()

	want := gramInto(g.kern, g.noise, mat.NewDense(n, n, nil), g.x) // serial: n < gramParallelN

	old := gramParallelN
	gramParallelN = 1
	defer func() { gramParallelN = old }()
	for _, procs := range []int{1, 8} {
		oldProcs := runtime.GOMAXPROCS(procs)
		got := gramInto(g.kern, g.noise, mat.NewDense(n, n, nil), g.x)
		runtime.GOMAXPROCS(oldProcs)
		gd, wd := got.Data(), want.Data()
		for i := range wd {
			if math.Float64bits(gd[i]) != math.Float64bits(wd[i]) {
				t.Fatalf("procs=%d: gram[%d] = %v, want %v", procs, i, gd[i], wd[i])
			}
		}
	}
}

// TestLMLGradBandedBitIdentity pins the two halves of the banded
// gradient-trace contract: (1) the banded path is bitwise-identical to
// itself at GOMAXPROCS 1 and 8 — per-band partials live in private slots
// and are reduced in fixed band order, so the worker count cannot touch
// the bits; (2) against the legacy serial fold the banded association
// differs only in rounding — every gradient component agrees to relative
// tolerance — which is why the lmlGradBandN gate (not a correctness fix)
// keeps golden-trace-scale fits on the legacy DAG.
func TestLMLGradBandedBitIdentity(t *testing.T) {
	g, p := fitFixture(t, 72)
	ws := fitWorkspaceFor(g, g.x, len(p))

	lmlSerial, gr, err := ws.logMarginalLikelihood(g.x, g.ys, p)
	if err != nil {
		t.Fatalf("logMarginalLikelihood (serial): %v", err)
	}
	serial := append([]float64(nil), gr...)

	oldBand := lmlGradBandN
	lmlGradBandN = 1
	defer func() { lmlGradBandN = oldBand }()

	var banded []float64
	var lmlBanded float64
	for _, procs := range []int{1, 8} {
		oldProcs := runtime.GOMAXPROCS(procs)
		lml, gr, err := ws.logMarginalLikelihood(g.x, g.ys, p)
		runtime.GOMAXPROCS(oldProcs)
		if err != nil {
			t.Fatalf("logMarginalLikelihood (banded, procs=%d): %v", procs, err)
		}
		if banded == nil {
			banded = append([]float64(nil), gr...)
			lmlBanded = lml
			continue
		}
		if math.Float64bits(lml) != math.Float64bits(lmlBanded) {
			t.Fatalf("banded LML differs across GOMAXPROCS: %v vs %v", lml, lmlBanded)
		}
		for i := range banded {
			if math.Float64bits(gr[i]) != math.Float64bits(banded[i]) {
				t.Fatalf("banded grad[%d] differs across GOMAXPROCS: %v vs %v", i, gr[i], banded[i])
			}
		}
	}

	// The LML itself never goes through the banded fold — identical bits.
	if math.Float64bits(lmlBanded) != math.Float64bits(lmlSerial) {
		t.Fatalf("LML = %v banded, %v serial", lmlBanded, lmlSerial)
	}
	for i := range serial {
		diff := math.Abs(banded[i] - serial[i])
		if diff > 1e-9*(1+math.Abs(serial[i])) {
			t.Fatalf("banded grad[%d] = %v, serial %v (diff %v)", i, banded[i], serial[i], diff)
		}
	}
}

// TestFitWorkspaceReuseBitIdentity: evaluating the LML through a dirty,
// recycled workspace must give exactly the bits a fresh workspace gives —
// the pooled buffers carry no state between evaluations (the kernel is
// set from the evaluated point, the Gram fill writes both its lower
// triangle and the radial derivatives in its upper one, and InverseInto
// and the accumulators overwrite before reading). That is what lets a
// start run first, last or beside another and follow the same path.
func TestFitWorkspaceReuseBitIdentity(t *testing.T) {
	g, p := fitFixture(t, 33)

	fresh := fitWorkspaceFor(g, g.x, len(p))
	wantLML, gr, err := fresh.logMarginalLikelihood(g.x, g.ys, p)
	if err != nil {
		t.Fatalf("logMarginalLikelihood: %v", err)
	}
	want := append([]float64(nil), gr...)

	dirty := fitWorkspaceFor(g, g.x, len(p))
	// Poison every pooled buffer, then evaluate at a different point first
	// so the workspace arrives genuinely used.
	for i := range dirty.gram.Data() {
		dirty.gram.Data()[i] = math.NaN()
	}
	for i := range dirty.inv.Data() {
		dirty.inv.Data()[i] = math.Inf(1)
	}
	for _, buf := range [][]float64{dirty.wt.Data(), dirty.alpha, dirty.grad, dirty.kg, dirty.bandGrad, dirty.bandKg} {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	junk := make([]float64, dirty.kern.NumParams())
	for i := range junk {
		junk[i] = 7
	}
	dirty.kern.SetParams(junk)
	dirty.noise = math.NaN()
	p2 := append([]float64(nil), p...)
	p2[0] += 0.3
	if _, _, err := dirty.logMarginalLikelihood(g.x, g.ys, p2); err != nil {
		t.Fatalf("logMarginalLikelihood (warmup): %v", err)
	}
	gotLML, got, err := dirty.logMarginalLikelihood(g.x, g.ys, p)
	if err != nil {
		t.Fatalf("logMarginalLikelihood (reused): %v", err)
	}
	if math.Float64bits(gotLML) != math.Float64bits(wantLML) {
		t.Fatalf("reused workspace LML = %v, fresh %v", gotLML, wantLML)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("reused workspace grad[%d] = %v, fresh %v", i, got[i], want[i])
		}
	}
}
