package uphes

import (
	"fmt"
	"math"
	"time"
)

// Simulator is the UPHES black box: a deterministic map from a
// 12-dimensional decision vector to the expected daily profit [EUR]. It is
// safe for concurrent use; each evaluation simulates its own plant copies.
type Simulator struct {
	cfg       Config
	scenarios []scenario
	lo, hi    []float64
}

// New builds a simulator from the configuration.
func New(cfg Config) (*Simulator, error) {
	if cfg.Scenarios == 0 {
		cfg.Scenarios = 16
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, scenarios: makeScenarios(&cfg)}
	s.lo, s.hi = cfg.Bounds()
	return s, nil
}

// Config returns the simulator configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Bounds returns copies of the decision-space box.
func (s *Simulator) Bounds() (lo, hi []float64) {
	return append([]float64(nil), s.lo...), append([]float64(nil), s.hi...)
}

// Breakdown itemizes one expected-profit evaluation, averaged over
// scenarios. All amounts are EUR; penalties are reported positive and
// enter the profit negatively.
type Breakdown struct {
	// EnergyRevenue is turbine sales minus pump purchase cost.
	EnergyRevenue float64
	// ReserveRevenue is capacity payments plus activation energy revenue.
	ReserveRevenue float64
	// StoredValue is the end-of-day settlement of the net stored-energy
	// change (positive when the day ends with more stored energy than it
	// started).
	StoredValue float64
	// ImbalancePenalty is the cost of scheduled-but-undelivered energy.
	ImbalancePenalty float64
	// ReservePenalty is the shortfall cost of unheld/undelivered reserve.
	ReservePenalty float64
	// CavitationPenalty is the unsafe-operating-zone cost.
	CavitationPenalty float64
	// Profit is the grand total.
	Profit float64
}

// Profit evaluates the expected daily profit of decision x.
func (s *Simulator) Profit(x []float64) float64 {
	return s.Detail(x).Profit
}

// Eval implements parallel.Evaluator: it returns the expected profit and
// the configured simulated latency.
func (s *Simulator) Eval(x []float64) (float64, time.Duration) {
	return s.Profit(x), s.cfg.SimLatency
}

// Detail evaluates x and returns the itemized expected profit.
func (s *Simulator) Detail(x []float64) *Breakdown {
	if len(x) != Dim {
		panic(fmt.Sprintf("uphes: decision vector length %d, want %d", len(x), Dim))
	}
	var agg Breakdown
	for i := range s.scenarios {
		b := s.simulate(x, &s.scenarios[i])
		agg.EnergyRevenue += b.EnergyRevenue
		agg.ReserveRevenue += b.ReserveRevenue
		agg.StoredValue += b.StoredValue
		agg.ImbalancePenalty += b.ImbalancePenalty
		agg.ReservePenalty += b.ReservePenalty
		agg.CavitationPenalty += b.CavitationPenalty
	}
	n := float64(len(s.scenarios))
	agg.EnergyRevenue /= n
	agg.ReserveRevenue /= n
	agg.StoredValue /= n
	agg.ImbalancePenalty /= n
	agg.ReservePenalty /= n
	agg.CavitationPenalty /= n
	agg.Profit = agg.EnergyRevenue + agg.ReserveRevenue + agg.StoredValue -
		agg.ImbalancePenalty - agg.ReservePenalty - agg.CavitationPenalty -
		s.cfg.Market.DailyFixedCost
	return &agg
}

// mode of operation during a step.
type opMode int

const (
	modeIdle opMode = iota
	modeTurbine
	modePump
)

// DayInput is one explicit realized day of exogenous inputs: the price
// path, the natural inflow and the reserve activations. The Monte-Carlo
// expected-profit path (Detail) draws its own scenarios; the scenario
// engine's rolling-horizon driver instead simulates one realized path per
// day, generated deterministically by internal/scenario.
type DayInput struct {
	// Price[t] is the day-ahead energy price at step t [EUR/MWh].
	Price [Steps]float64
	// Inflow is the natural inflow for the day [m³/s].
	Inflow float64
	// Activated[r] is the activation fraction of reserve slot r in [0,1].
	Activated [ReserveSlots]float64
}

// DayMetrics reports the operational envelope of one simulated day: the
// extreme fill fractions reached by each reservoir and the number of
// pump↔turbine mode switches (a pump→idle→turbine sequence counts as one
// switch — what wears the machine is the reversal, not the idle dwell).
// The scenario engine's constraint accounting is built on these.
type DayMetrics struct {
	MinUpperFill, MaxUpperFill float64
	MinLowerFill, MaxLowerFill float64
	Switches                   int

	lastActive opMode
}

func (dm *DayMetrics) init(pl *Plant) {
	dm.MinUpperFill, dm.MaxUpperFill = pl.UpperFill(), pl.UpperFill()
	dm.MinLowerFill, dm.MaxLowerFill = pl.LowerFill(), pl.LowerFill()
}

func (dm *DayMetrics) observe(pl *Plant, mode opMode) {
	if mode != modeIdle {
		if dm.lastActive != modeIdle && dm.lastActive != mode {
			dm.Switches++
		}
		dm.lastActive = mode
	}
	if f := pl.UpperFill(); f < dm.MinUpperFill {
		dm.MinUpperFill = f
	} else if f > dm.MaxUpperFill {
		dm.MaxUpperFill = f
	}
	if f := pl.LowerFill(); f < dm.MinLowerFill {
		dm.MinLowerFill = f
	} else if f > dm.MaxLowerFill {
		dm.MaxLowerFill = f
	}
}

// SimulateDay runs one day of schedule x from the given start state under
// the explicit inputs in, returning the itemized profit (Profit includes
// the daily fixed cost), the end-of-day reservoir state and the day's
// operational metrics. It is the scenario engine's entry point: unlike
// Profit/Detail it evaluates a single realized path, not a Monte-Carlo
// average, and carries reservoir state instead of resetting to the
// configured initial fill.
func (s *Simulator) SimulateDay(x []float64, start PlantState, in *DayInput) (Breakdown, PlantState, DayMetrics) {
	if len(x) != Dim {
		panic(fmt.Sprintf("uphes: decision vector length %d, want %d", len(x), Dim))
	}
	sc := scenario{price: in.Price, inflow: in.Inflow, activated: in.Activated}
	pl := NewPlant(&s.cfg.Plant)
	pl.SetState(start)
	var dm DayMetrics
	b := s.simulateOn(x, &sc, pl, &dm)
	b.Profit = b.EnergyRevenue + b.ReserveRevenue + b.StoredValue -
		b.ImbalancePenalty - b.ReservePenalty - b.CavitationPenalty -
		s.cfg.Market.DailyFixedCost
	return b, pl.State(), dm
}

// simulate runs one scenario day from the configured initial fill and
// returns its itemized profit — the Monte-Carlo expected-profit path.
func (s *Simulator) simulate(x []float64, sc *scenario) Breakdown {
	return s.simulateOn(x, sc, NewPlant(&s.cfg.Plant), nil)
}

// simulateOn runs one scenario day of schedule x on the given plant,
// mutating its state in place. A non-nil dm accumulates operational
// metrics; the profit arithmetic is identical either way (the historical
// Monte-Carlo path passes nil and stays bit-identical).
func (s *Simulator) simulateOn(x []float64, sc *scenario, pl *Plant, dm *DayMetrics) Breakdown {
	cfg := &s.cfg
	if dm != nil {
		dm.init(pl)
	}
	var b Breakdown
	startEnergy := pl.storedEnergyMWh()
	dtSec := StepHours * 3600

	for t := 0; t < Steps; t++ {
		slot := t / (Steps / EnergySlots)   // 12 steps per 3h slot
		rslot := t / (Steps / ReserveSlots) // 24 steps per 6h slot
		price := sc.price[t]
		set := x[slot]
		reserve := x[EnergySlots+rslot]

		// Exogenous hydrology first.
		pl.inflowStep(sc.inflow, dtSec)
		pl.groundwaterStep(dtSec)

		// Decide the operating mode from the setpoint: the dead band
		// between −PumpMin and +TurbineMin is idle (the mixed-integer
		// pump/turbine/idle structure).
		mode := modeIdle
		target := 0.0
		switch {
		case set >= cfg.Plant.TurbineMinMW:
			mode = modeTurbine
			target = math.Min(set, cfg.Plant.TurbineMaxMW)
		case set <= -cfg.Plant.PumpMinMW:
			mode = modePump
			target = math.Min(-set, cfg.Plant.PumpMaxMW)
		}

		if !pl.headSafe() {
			// Outside the safe head range the unit trips to idle; any
			// scheduled energy becomes imbalance.
			if mode == modeTurbine {
				b.ImbalancePenalty += target * StepHours * price * cfg.Market.ImbalanceBuyFactor
			} else if mode == modePump {
				// Scheduled consumption not taken: surplus sold back at a
				// loss (half price spread).
				b.ImbalancePenalty += target * StepHours * price * 0.5
			}
			mode = modeIdle
		}

		switch mode {
		case modeTurbine:
			scheduled := target
			lo, hi := pl.turbineRange()
			p := clamp(target, lo, hi)
			// Reserve headroom must stay available on top of the
			// schedule; if not, shrink the schedule and count the
			// curtailed energy as imbalance.
			if reserve > 0 && p+reserve > hi {
				p = math.Max(lo, hi-reserve)
			}
			// Cavitation forbidden band: shift to the nearest edge and
			// penalize the dwell (a genuine discontinuity in x).
			if czLo, czHi := pl.cavitationZone(); p > czLo && p < czHi {
				b.CavitationPenalty += cfg.Market.CavitationPenalty * p * StepHours
				if p-czLo < czHi-p {
					p = czLo
				} else {
					p = czHi
				}
			}
			vol := pl.turbineFlow(p) * dtSec
			frac := pl.moveTurbine(vol)
			delivered := p * frac
			b.EnergyRevenue += delivered * StepHours * price
			if shortfall := scheduled - delivered; shortfall > 1e-9 {
				b.ImbalancePenalty += shortfall * StepHours * price * cfg.Market.ImbalanceBuyFactor
			}

		case modePump:
			scheduled := target
			lo, hi := pl.pumpRange()
			p := clamp(target, lo, hi)
			vol := pl.pumpFlow(p) * dtSec
			frac := pl.movePump(vol)
			consumed := p * frac
			b.EnergyRevenue -= consumed * StepHours * price
			if shortfall := scheduled - consumed; shortfall > 1e-9 {
				// Bought in day-ahead but not consumed: sold back at a
				// discount.
				b.ImbalancePenalty += shortfall * StepHours * price * 0.5
			}
		}

		// Reserve obligations: the offered capacity must be available as
		// extra turbine output at every step of the reserve slot. While
		// pumping, the machine cannot provide upward reserve (switching
		// from pump to turbine mode takes minutes, too slow for automatic
		// reserve delivery), so any offer overlapping a pump block is a
		// shortfall — one of the couplings that confines profitable
		// schedules to a thin manifold.
		if reserve > 0 {
			_, hi := pl.turbineRange()
			current := 0.0
			if mode == modeTurbine {
				current = math.Min(x[slot], hi)
			}
			headroom := hi - current
			if !pl.headSafe() || mode == modePump {
				headroom = 0
			}
			if headroom+1e-9 < reserve {
				miss := reserve - math.Max(headroom, 0)
				b.ReservePenalty += miss * StepHours * cfg.Market.ReserveShortfallPenalty
			}
			b.ReserveRevenue += reserve * StepHours * cfg.Market.ReserveCapacityPrice

			// Activation: deliver the activated fraction as extra
			// turbine energy if hydraulically possible.
			if act := sc.activated[rslot]; act > 0 {
				want := reserve * act
				deliverable := math.Min(want, math.Max(headroom, 0))
				if deliverable > 0 && pl.headSafe() {
					vol := pl.turbineFlow(deliverable) * dtSec
					frac := pl.moveTurbine(vol)
					got := deliverable * frac
					b.ReserveRevenue += got * StepHours * cfg.Market.ReserveActivationPrice
					if got+1e-9 < want {
						b.ReservePenalty += (want - got) * StepHours * cfg.Market.ReserveShortfallPenalty
					}
				} else {
					b.ReservePenalty += want * StepHours * cfg.Market.ReserveShortfallPenalty
				}
			}
		}

		if dm != nil {
			dm.observe(pl, mode)
		}
	}

	// End-of-day stored-energy settlement, asymmetric: deficits are
	// repurchased at a premium, surpluses credited at a conservative
	// water value.
	endEnergy := pl.storedEnergyMWh()
	delta := endEnergy - startEnergy
	if delta >= 0 {
		b.StoredValue = delta * sc.averagePrice() * s.cfg.Market.StoredSurplusFactor
	} else {
		b.StoredValue = delta * sc.averagePrice() * s.cfg.Market.StoredDeficitFactor
	}
	return b
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
