package gp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// HyperState is the serializable hyperparameter state of a fitted GP: the
// construction Config plus the fitted packed parameters and the output
// standardization they were fitted against. It is exactly the set of
// fields Refit and WithData read from their previous-model argument, so a
// donor rebuilt from a HyperState warm-starts future fits bit-identically
// to the original model — the property crash-safe checkpoint/resume rests
// on. All fields round-trip exactly through encoding/json (float64 uses
// shortest-form encoding).
type HyperState struct {
	Config     Config    `json:"config"`
	WarmParams []float64 `json:"warm_params"`
	YMean      float64   `json:"y_mean"`
	YStd       float64   `json:"y_std"`
	FitLML     float64   `json:"fit_lml"`
}

// HyperState exports the model's hyperparameter state for checkpointing.
func (g *GP) HyperState() *HyperState {
	return &HyperState{
		Config:     g.cfg,
		WarmParams: mat.CloneVec(g.warmParams),
		YMean:      g.ymean,
		YStd:       g.ystd,
		FitLML:     g.fitLML,
	}
}

// ErrHyperState reports a malformed HyperState on restore.
var ErrHyperState = errors.New("gp: invalid hyper state")

// RestoreHyperDonor rebuilds a warm-start donor model from a HyperState.
// The donor carries the fitted kernel, noise, packed parameters and output
// standardization of the original model but no training data or factor:
// it is valid exclusively as the previous-model argument of Refit and
// WithData (which read only those fields), not for prediction. This is
// sufficient for resume because the engine refits the surrogate at the
// start of every cycle — the donor only has to seed that fit with the
// same warm state the uninterrupted run would have used.
func RestoreHyperDonor(hs *HyperState) (*GP, error) {
	if hs == nil {
		return nil, fmt.Errorf("%w: nil state", ErrHyperState)
	}
	cfg := hs.Config
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHyperState, err)
	}
	d := len(cfg.Lo)
	g := &GP{cfg: cfg, d: d, kern: kernel.NewMatern52(d)}
	np := g.kern.NumParams()
	if cfg.Noise <= 0 {
		np++ // fitted noise is packed after the kernel parameters
	}
	if len(hs.WarmParams) != np {
		return nil, fmt.Errorf("%w: %d packed params, want %d", ErrHyperState, len(hs.WarmParams), np)
	}
	for _, v := range hs.WarmParams {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite packed param", ErrHyperState)
		}
	}
	if !(hs.YStd > 0) {
		return nil, fmt.Errorf("%w: y_std = %v", ErrHyperState, hs.YStd)
	}
	g.applyParams(hs.WarmParams)
	g.warmParams = mat.CloneVec(hs.WarmParams)
	g.ymean, g.ystd = hs.YMean, hs.YStd
	g.fitLML = hs.FitLML
	return g, nil
}
