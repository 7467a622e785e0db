package scenario

import (
	"encoding/binary"
	"math"
	"sync"
	"time"

	"repro/internal/fp"
	"repro/internal/uphes"
)

// boundaryEps is the slack under which a constraint is considered
// satisfied: violations are strict excesses beyond the bound, so a
// reservoir sitting exactly on a bound (the day-boundary carry case) is
// feasible, not an infinitesimal violation.
const boundaryEps = 1e-9

// switchScale converts excess mode switches (a count) into the fill-
// fraction units the other violation terms use, keeping the aggregate
// violation magnitude comparable across constraint families.
const switchScale = 0.1

// The bounds on the plant operation the optimizer may commit.
const (
	// minFill and maxFill bound both reservoirs' fill fraction at every
	// step of the day: never drain a basin to the dead zone, never run
	// one to the brim.
	minFill = 0.05
	maxFill = 0.98
	// maxSwitchesPerDay caps pump↔turbine reversals per day — the
	// machine-wear limit.
	maxSwitchesPerDay = 6
	// endFillBand bounds how far the upper reservoir's end-of-horizon
	// fill may drift from its start-of-horizon fill, keeping the myopic
	// horizon from strip-mining the stored water.
	endFillBand = 0.2
)

// excess returns the strict constraint excess of v beyond bound in the
// given direction, with the boundary itself (and boundaryEps around it)
// feasible.
func excess(v, bound float64, above bool) float64 {
	var e float64
	if above {
		e = v - bound
	} else {
		e = bound - v
	}
	if e <= boundaryEps {
		return 0
	}
	return e
}

// evalRec caches one horizon simulation: the total profit and the
// aggregate constraint violation of the decision vector.
type evalRec struct {
	profit    float64
	violation float64
}

// Constrained is the horizon objective of one (member, day) cell: it
// simulates Horizon consecutive days from the carried reservoir state
// under the member's realized inputs, sums the profits, and measures the
// constraint violations the unconstrained simulator only prices softly.
// It implements parallel.Evaluator (the profit is the objective) and
// exposes Violation for the constraint surrogate's training labels.
// Evaluations are cached, so the factory's violation lookups never
// re-simulate points the pool already evaluated. Safe for concurrent
// use.
type Constrained struct {
	// Sim is the day simulator.
	Sim *uphes.Simulator
	// Inputs are the horizon's realized days, index 0 = the committed
	// day.
	Inputs []uphes.DayInput
	// Start is the reservoir state carried into the horizon.
	Start uphes.PlantState
	// Latency is the simulated per-evaluation cost.
	Latency time.Duration

	mu    sync.Mutex
	cache map[string]evalRec
}

// key packs a decision vector into a map key by exact bit pattern, so
// the cache distinguishes -0 from +0 and never rounds.
func key(x []float64) string {
	b := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return string(b)
}

// run simulates the horizon once and caches the result.
func (c *Constrained) run(x []float64) evalRec {
	k := key(x)
	c.mu.Lock()
	if rec, ok := c.cache[k]; ok {
		c.mu.Unlock()
		return rec
	}
	c.mu.Unlock()

	h := len(c.Inputs)
	state := c.Start
	startFill := state.UpperV / c.Sim.Config().Plant.UpperVolumeMax
	var rec evalRec
	for i := 0; i < h; i++ {
		b, next, dm := c.Sim.SimulateDay(x[i*uphes.Dim:(i+1)*uphes.Dim], state, &c.Inputs[i])
		rec.profit += b.Profit
		rec.violation += c.dayViolation(&dm)
		state = next
	}
	endFill := state.UpperV / c.Sim.Config().Plant.UpperVolumeMax
	rec.violation += excess(math.Abs(endFill-startFill), endFillBand, true)

	c.mu.Lock()
	if c.cache == nil {
		c.cache = make(map[string]evalRec)
	}
	c.cache[k] = rec
	c.mu.Unlock()
	return rec
}

// dayViolation aggregates one day's constraint excesses from its
// operational metrics.
func (c *Constrained) dayViolation(dm *uphes.DayMetrics) float64 {
	v := excess(dm.MinUpperFill, minFill, false)
	v += excess(dm.MaxUpperFill, maxFill, true)
	v += excess(dm.MinLowerFill, minFill, false)
	v += excess(dm.MaxLowerFill, maxFill, true)
	if ex := dm.Switches - maxSwitchesPerDay; ex > 0 {
		v += switchScale * float64(ex)
	}
	return v
}

// Eval implements parallel.Evaluator: the horizon profit with the
// configured simulated latency.
func (c *Constrained) Eval(x []float64) (float64, time.Duration) {
	return c.run(x).profit, c.Latency
}

// Violation returns the aggregate constraint violation of x: 0 when
// every constraint holds, otherwise the summed strict excesses. It is
// the training label of the constraint surrogate and the rolling
// driver's commit gate.
func (c *Constrained) Violation(x []float64) float64 {
	return c.run(x).violation
}

// Feasible reports whether x satisfies every constraint.
func (c *Constrained) Feasible(x []float64) bool {
	return fp.Zero(c.run(x).violation)
}
