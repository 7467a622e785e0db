// Package uphes implements a synthetic Underground Pumped Hydro-Energy
// Storage (UPHES) plant simulator standing in for the proprietary
// Matlab/RAO simulator of the Maizeret test case used in the paper (see
// DESIGN.md §3). Given a 12-dimensional decision vector — 8 energy-market
// power setpoints and 4 reserve-market capacity offers — it simulates the
// plant through a full day at quarter-hour resolution over a set of
// stochastic scenarios and returns the expected daily profit in EUR.
//
// The simulator reproduces the landscape pathologies the paper motivates:
//
//   - nonlinear, non-convex head effects: pump/turbine feasible power
//     ranges and efficiencies vary continuously with the net hydraulic
//     head, which itself depends on both reservoir levels;
//   - discontinuities from cavitation/vibration forbidden zones and from
//     the pump–turbine–idle mode structure;
//   - groundwater exchange between the underground basin and its porous
//     surroundings;
//   - uncertainty in prices, natural inflows and reserve activations,
//     averaged over scenarios with common random numbers so that the
//     objective is deterministic for a given seed;
//   - penalty-based constraint handling inside the black box.
package uphes

import (
	"errors"
	"time"
)

// Dim is the decision-vector dimension: 8 energy slots + 4 reserve slots.
const Dim = 12

// Number of energy- and reserve-market decision slots in a day.
const (
	EnergySlots  = 8 // 3-hour blocks
	ReserveSlots = 4 // 6-hour blocks
)

// Steps is the number of quarter-hour simulation steps in a day.
const Steps = 96

// StepHours is the duration of one simulation step in hours.
const StepHours = 0.25

// Config parameterizes the plant, the markets and the simulation.
type Config struct {
	// Seed drives all scenario randomness (common random numbers: the
	// objective is a deterministic function of x given Seed).
	Seed uint64
	// Scenarios is the number of Monte-Carlo scenarios averaged into the
	// expected profit (default 16).
	Scenarios int
	// SimLatency is the simulated latency reported per evaluation
	// (default 10 s, the paper's convention). Zero disables latency.
	SimLatency time.Duration

	// Plant parameters (defaults model the Maizeret-like unit).
	Plant PlantConfig
	// Market parameters.
	Market MarketConfig
}

// PlantConfig describes the physical plant.
type PlantConfig struct {
	// UpperVolumeMax is the upper reservoir capacity [m³].
	UpperVolumeMax float64
	// UpperArea is the (constant) upper reservoir surface area [m²].
	UpperArea float64
	// UpperBase is the elevation of the upper reservoir bottom [m].
	UpperBase float64
	// LowerVolumeMax is the underground basin capacity [m³].
	LowerVolumeMax float64
	// LowerDepth is the underground basin depth [m]; the level–volume
	// relation is level = Depth·(V/Vmax)^LowerShape (narrowing pit).
	LowerDepth float64
	// LowerShape is the pit geometry exponent (< 1 = narrow bottom).
	LowerShape float64
	// LowerBase is the elevation of the basin bottom [m] (negative:
	// underground).
	LowerBase float64
	// InitialFill is the initial fill fraction of both reservoirs.
	InitialFill float64

	// HeadNominal is the nominal net hydraulic head [m].
	HeadNominal float64
	// HeadMin and HeadMax bound the safe operating head [m]; outside this
	// range the unit is forced to idle.
	HeadMin, HeadMax float64

	// PumpMinMW and PumpMaxMW are the pump power range at nominal head
	// ([6, 8] MW for the Maizeret unit).
	PumpMinMW, PumpMaxMW float64
	// TurbineMinMW and TurbineMaxMW are the turbine power range at
	// nominal head ([4, 8] MW).
	TurbineMinMW, TurbineMaxMW float64
	// PumpEff and TurbineEff are the peak efficiencies.
	PumpEff, TurbineEff float64
	// EffPowerCurvature and EffHeadCurvature shape the efficiency decay
	// away from the optimal power fraction and nominal head.
	EffPowerCurvature, EffHeadCurvature float64

	// CavitationLow and CavitationHigh delimit the turbine vibration
	// forbidden zone [MW] at nominal head (scaled with head).
	CavitationLow, CavitationHigh float64

	// GroundwaterLevel is the surrounding water-table elevation [m].
	GroundwaterLevel float64
	// GroundwaterRate is the exchange coefficient [m³/s per m of level
	// difference].
	GroundwaterRate float64
	// InflowMean is the mean natural inflow into the lower basin [m³/s].
	InflowMean float64
	// InflowSigma is the scenario inflow standard deviation [m³/s].
	InflowSigma float64
}

// MarketConfig describes the day-ahead energy and reserve markets.
type MarketConfig struct {
	// PriceBase is the flat component of the day-ahead price [EUR/MWh].
	PriceBase float64
	// MorningPeak, EveningPeak are peak amplitudes [EUR/MWh].
	MorningPeak, EveningPeak float64
	// NightDip is the overnight price dip amplitude [EUR/MWh].
	NightDip float64
	// PriceSigma is the scenario price noise standard deviation.
	PriceSigma float64

	// ReserveCapacityPrice pays held reserve [EUR/MW/h].
	ReserveCapacityPrice float64
	// ReserveActivationPrice pays delivered activation energy [EUR/MWh].
	ReserveActivationPrice float64
	// ReserveActivationProb is the per-reserve-slot activation
	// probability.
	ReserveActivationProb float64
	// ReserveMaxMW bounds the reserve capacity offer per slot.
	ReserveMaxMW float64
	// ReserveShortfallPenalty is charged per MWh of reserve that was sold
	// but could not be held or delivered [EUR/MWh].
	ReserveShortfallPenalty float64

	// ImbalanceBuyFactor scales the day-ahead price for energy that was
	// scheduled but not delivered (bought back expensively).
	ImbalanceBuyFactor float64
	// CavitationPenalty is charged per MWh scheduled inside a forbidden
	// zone [EUR/MWh].
	CavitationPenalty float64
	// StoredDeficitFactor prices the end-of-day stored-energy *deficit*
	// at factor × average price: drained reservoirs must be refilled on
	// tomorrow's market plus risk margin.
	StoredDeficitFactor float64
	// StoredSurplusFactor credits the end-of-day stored-energy *surplus*
	// at factor × average price: a conservative water value. Keeping it
	// well below the deficit factor makes only energy-balanced schedules
	// profitable, which is what confines the profitable region to a thin
	// manifold of the 12-D decision space (cf. the paper's observation
	// that the best of ~12000 random schedules still loses ~1200 EUR).
	StoredSurplusFactor float64
	// DailyFixedCost is the plant's daily operations-and-maintenance cost
	// [EUR] — staffing, drainage pumping of the underground works,
	// auxiliaries. It makes idling strictly unprofitable, as for the
	// paper's plant, where even the best of ~12000 random schedules loses
	// money.
	DailyFixedCost float64
}

// DefaultConfig returns the calibrated Maizeret-like configuration: ~80 MWh
// energy capacity, pump range [6, 8] MW, turbine range [4, 8] MW, 10 s
// simulation latency.
func DefaultConfig() Config {
	return Config{
		Seed:       20220790,
		Scenarios:  16,
		SimLatency: 10 * time.Second,
		Plant: PlantConfig{
			UpperVolumeMax: 280000,
			UpperArea:      28000,
			UpperBase:      0,
			LowerVolumeMax: 320000,
			LowerDepth:     25,
			LowerShape:     0.6,
			LowerBase:      -135,
			InitialFill:    0.5,

			HeadNominal: 125,
			HeadMin:     112,
			HeadMax:     142,

			PumpMinMW: 6, PumpMaxMW: 8,
			TurbineMinMW: 4, TurbineMaxMW: 8,
			PumpEff: 0.90, TurbineEff: 0.93,
			EffPowerCurvature: 0.35,
			EffHeadCurvature:  3.0,

			CavitationLow:  5.4,
			CavitationHigh: 6.0,

			GroundwaterLevel: -120,
			GroundwaterRate:  0.04,
			InflowMean:       0.05,
			InflowSigma:      0.03,
		},
		Market: MarketConfig{
			PriceBase:   46,
			MorningPeak: 28,
			EveningPeak: 42,
			NightDip:    24,
			PriceSigma:  6,

			ReserveCapacityPrice:    4,
			ReserveActivationPrice:  75,
			ReserveActivationProb:   0.3,
			ReserveMaxMW:            2,
			ReserveShortfallPenalty: 320,

			ImbalanceBuyFactor:  2.5,
			CavitationPenalty:   250,
			StoredDeficitFactor: 1.35,
			StoredSurplusFactor: 0.25,
			DailyFixedCost:      800,
		},
	}
}

func (c *Config) validate() error {
	if c.Scenarios <= 0 {
		return errors.New("uphes: Scenarios must be positive")
	}
	p := &c.Plant
	switch {
	case p.UpperVolumeMax <= 0 || p.LowerVolumeMax <= 0:
		return errors.New("uphes: reservoir capacities must be positive")
	case p.UpperArea <= 0:
		return errors.New("uphes: upper area must be positive")
	case !(p.HeadMin < p.HeadNominal && p.HeadNominal < p.HeadMax):
		return errors.New("uphes: head bounds must straddle the nominal head")
	case !(0 < p.PumpMinMW && p.PumpMinMW <= p.PumpMaxMW):
		return errors.New("uphes: invalid pump power range")
	case !(0 < p.TurbineMinMW && p.TurbineMinMW <= p.TurbineMaxMW):
		return errors.New("uphes: invalid turbine power range")
	case p.PumpEff <= 0 || p.PumpEff > 1 || p.TurbineEff <= 0 || p.TurbineEff > 1:
		return errors.New("uphes: efficiencies must be in (0, 1]")
	case p.InitialFill < 0 || p.InitialFill > 1:
		return errors.New("uphes: InitialFill must be in [0, 1]")
	}
	if c.Market.ReserveMaxMW < 0 {
		return errors.New("uphes: negative reserve bound")
	}
	return nil
}

// Bounds returns the decision-space box: energy setpoints in
// [−PumpMax, +TurbineMax] MW (negative = pump) and reserve offers in
// [0, ReserveMaxMW] MW.
func (c *Config) Bounds() (lo, hi []float64) {
	lo = make([]float64, Dim)
	hi = make([]float64, Dim)
	for i := 0; i < EnergySlots; i++ {
		lo[i] = -c.Plant.PumpMaxMW
		hi[i] = c.Plant.TurbineMaxMW
	}
	for i := EnergySlots; i < Dim; i++ {
		lo[i] = 0
		hi[i] = c.Market.ReserveMaxMW
	}
	return lo, hi
}
