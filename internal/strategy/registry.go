package strategy

import (
	"fmt"

	"repro/internal/core"
)

// Names of the five paper strategies, in the paper's presentation order.
var Names = []string{"KB-q-EGO", "mic-q-EGO", "MC-based q-EGO", "BSP-EGO", "TuRBO"}

// Interface conformance: every strategy satisfies core.Strategy.
var (
	_ core.Strategy = (*KBQEGO)(nil)
	_ core.Strategy = (*MICQEGO)(nil)
	_ core.Strategy = (*MCQEGO)(nil)
	_ core.Strategy = (*BSPEGO)(nil)
	_ core.Strategy = (*TuRBO)(nil)
)

// ByName constructs a fresh strategy from its paper name.
func ByName(name string) (core.Strategy, error) {
	switch name {
	case "KB-q-EGO", "kb-q-ego", "kb":
		return NewKBQEGO(), nil
	case "mic-q-EGO", "mic-q-ego", "mic":
		return NewMICQEGO(), nil
	case "MC-based q-EGO", "mc-q-ego", "mc":
		return NewMCQEGO(), nil
	case "BSP-EGO", "bsp-ego", "bsp":
		return NewBSPEGO(), nil
	case "TuRBO", "turbo":
		return NewTuRBO(), nil
	}
	return nil, fmt.Errorf("strategy: unknown strategy %q", name)
}

// All returns fresh instances of the five strategies under comparison.
func All() []core.Strategy {
	out := make([]core.Strategy, len(Names))
	for i, n := range Names {
		s, err := ByName(n)
		if err != nil {
			panic(err) // unreachable: Names are known
		}
		out[i] = s
	}
	return out
}

// AcquisitionFor reports the acquisition function a strategy uses at a
// given batch size, reproducing the paper's Table 3.
func AcquisitionFor(name string, q int) string {
	switch name {
	case "TuRBO", "MC-based q-EGO":
		if q == 1 {
			return "EI"
		}
		return "qEI"
	case "mic-q-EGO":
		if q == 1 {
			return "EI"
		}
		return "EI/UCB (50%)"
	default: // KB-q-EGO, BSP-EGO
		return "EI"
	}
}
