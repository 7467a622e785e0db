package gp

import (
	"encoding/json"
	"testing"

	"repro/internal/rng"
)

// snapshotTrainingData builds two nested data sets: the fit set A and the
// extended set B a later cycle would condition on.
func snapshotTrainingData(t *testing.T) (xsA [][]float64, ysA []float64, xsB [][]float64, ysB []float64, cfg Config) {
	t.Helper()
	stream := rng.New(31, 9)
	lo := []float64{-2, -2, -2}
	hi := []float64{2, 2, 2}
	f := func(x []float64) float64 {
		return x[0]*x[0] + 0.5*x[1]*x[1] + 0.25*x[2]*x[2]*x[2]
	}
	var xs [][]float64
	var ys []float64
	for i := 0; i < 28; i++ {
		x := stream.UniformVec(lo, hi)
		xs = append(xs, x)
		ys = append(ys, f(x))
	}
	cfg = Config{Lo: lo, Hi: hi, Restarts: 1, MaxIter: 12, Seed: 5}
	return xs[:20], ys[:20], xs, ys, cfg
}

// TestHyperStateDonorWithData: conditioning new data through a donor
// rebuilt from a HyperState must be bit-identical to conditioning through
// the original fitted model — the WithData leg of the resume argument.
func TestHyperStateDonorWithData(t *testing.T) {
	xsA, ysA, xsB, ysB, cfg := snapshotTrainingData(t)
	orig, err := Fit(xsA, ysA, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip the state through JSON, as the snapshot codec does.
	data, err := json.Marshal(orig.HyperState())
	if err != nil {
		t.Fatal(err)
	}
	var hs HyperState
	if err := json.Unmarshal(data, &hs); err != nil {
		t.Fatal(err)
	}
	donor, err := RestoreHyperDonor(&hs)
	if err != nil {
		t.Fatal(err)
	}

	want, err := WithData(orig, xsB, ysB)
	if err != nil {
		t.Fatal(err)
	}
	got, err := WithData(donor, xsB, ysB)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePosterior(t, want, got, cfg)
}

// TestHyperStateDonorRefit: the Refit leg — a full hyperparameter
// re-optimization warm-started from the donor must land on exactly the
// optimum the original model's warm start produces.
func TestHyperStateDonorRefit(t *testing.T) {
	xsA, ysA, xsB, ysB, cfg := snapshotTrainingData(t)
	orig, err := Fit(xsA, ysA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	donor, err := RestoreHyperDonor(orig.HyperState())
	if err != nil {
		t.Fatal(err)
	}

	want, err := Refit(orig, xsB, ysB)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Refit(donor, xsB, ysB)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePosterior(t, want, got, cfg)
}

func assertSamePosterior(t *testing.T, want, got *GP, cfg Config) {
	t.Helper()
	wp, gp := want.Hyperparameters(), got.Hyperparameters()
	if len(wp) != len(gp) {
		t.Fatalf("param counts differ: %d vs %d", len(wp), len(gp))
	}
	for i := range wp {
		//lint:ignore floatcmp resume determinism demands bit-identical hyperparameters
		if wp[i] != gp[i] {
			t.Fatalf("param %d: %v vs %v", i, wp[i], gp[i])
		}
	}
	stream := rng.New(77, 3)
	for i := 0; i < 32; i++ {
		x := stream.UniformVec(cfg.Lo, cfg.Hi)
		wm, ws := want.PredictWithGrad(x, nil, nil)
		gm, gs := got.PredictWithGrad(x, nil, nil)
		//lint:ignore floatcmp resume determinism demands bit-identical predictions
		if wm != gm || ws != gs {
			t.Fatalf("query %d: (%v,%v) vs (%v,%v)", i, wm, ws, gm, gs)
		}
	}
}

func TestRestoreHyperDonorRejectsMalformed(t *testing.T) {
	xsA, ysA, _, _, cfg := snapshotTrainingData(t)
	g, err := Fit(xsA, ysA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := g.HyperState()

	cases := map[string]*HyperState{
		"nil":          nil,
		"no bounds":    {Config: Config{}, WarmParams: good.WarmParams, YStd: 1},
		"short params": {Config: good.Config, WarmParams: good.WarmParams[:1], YStd: 1},
		"zero ystd":    {Config: good.Config, WarmParams: good.WarmParams, YStd: 0},
	}
	for name, hs := range cases {
		if _, err := RestoreHyperDonor(hs); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
