package uphes

import "math"

// Physical constants.
const (
	rhoWater = 1000.0 // kg/m³
	gravity  = 9.81   // m/s²
)

// Plant carries the hydraulic state of the two reservoirs during one
// simulated day. The rolling-horizon scenario driver threads this state
// across days: State captures it after a committed day, SetState seeds the
// next day's plant with it. A Plant is not safe for concurrent use: even
// its reading methods fill the memo below.
type Plant struct {
	cfg *PlantConfig
	// upperV and lowerV are the current stored volumes [m³].
	upperV, lowerV float64

	// A memo of the plant's two math.Pow terms, each kept with the bits of
	// the volumes it was computed from: level is lowerLevel at the lowerV
	// whose bits are levelV, and scale is headScale at the (upperV,
	// lowerV) whose bits are (scaleU, scaleL). A step reads both many
	// times between volume changes; since each is recomputed whenever its
	// volumes' bits differ, it always returns what a recomputation would.
	level, scale           float64
	levelV, scaleU, scaleL uint64
	levelOK, scaleOK       bool
}

// NewPlant returns a plant at the configured initial fill.
func NewPlant(cfg *PlantConfig) *Plant {
	return &Plant{
		cfg:    cfg,
		upperV: cfg.InitialFill * cfg.UpperVolumeMax,
		lowerV: cfg.InitialFill * cfg.LowerVolumeMax,
	}
}

// PlantState is the carried hydraulic state between simulated days: the
// stored volumes of both reservoirs [m³]. It serializes on the scenario
// wire (serve's DaySpec), so the fields are exported and JSON-tagged.
type PlantState struct {
	UpperV float64 `json:"upper_v"`
	LowerV float64 `json:"lower_v"`
}

// DefaultState returns the initial-fill state NewPlant starts from.
func DefaultState(cfg *PlantConfig) PlantState {
	return PlantState{
		UpperV: cfg.InitialFill * cfg.UpperVolumeMax,
		LowerV: cfg.InitialFill * cfg.LowerVolumeMax,
	}
}

// Clone returns an independent copy of the plant sharing only the
// immutable configuration.
func (p *Plant) Clone() *Plant {
	c := *p
	return &c
}

// State returns the current reservoir volumes.
func (p *Plant) State() PlantState {
	return PlantState{UpperV: p.upperV, LowerV: p.lowerV}
}

// SetState installs carried-over reservoir volumes. Values are clamped
// into [0, capacity] with the bounds themselves included: a reservoir
// sitting exactly at a bound is a legal state, not an error — the day-
// boundary contract the scenario engine's feasibility accounting relies
// on (a schedule that parks the level exactly on a bound must not trip a
// violation on the next day's first step).
func (p *Plant) SetState(s PlantState) {
	p.upperV = clamp(s.UpperV, 0, p.cfg.UpperVolumeMax)
	p.lowerV = clamp(s.LowerV, 0, p.cfg.LowerVolumeMax)
}

// UpperFill and LowerFill return the fill fractions in [0, 1].
func (p *Plant) UpperFill() float64 { return p.upperV / p.cfg.UpperVolumeMax }

// LowerFill returns the lower-basin fill fraction in [0, 1].
func (p *Plant) LowerFill() float64 { return p.lowerV / p.cfg.LowerVolumeMax }

// upperLevel returns the upper water surface elevation [m].
func (p *Plant) upperLevel() float64 {
	return p.cfg.UpperBase + p.upperV/p.cfg.UpperArea
}

// lowerLevel returns the underground water surface elevation [m]. The pit
// narrows toward the bottom: level rises steeply when nearly empty.
func (p *Plant) lowerLevel() float64 {
	if v := math.Float64bits(p.lowerV); !p.levelOK || v != p.levelV {
		frac := p.lowerV / p.cfg.LowerVolumeMax
		if frac < 0 {
			frac = 0
		}
		p.level = p.cfg.LowerBase + p.cfg.LowerDepth*math.Pow(frac, p.cfg.LowerShape)
		p.levelV, p.levelOK = v, true
	}
	return p.level
}

// head returns the net hydraulic head [m] between the two surfaces.
func (p *Plant) head() float64 {
	return p.upperLevel() - p.lowerLevel()
}

// headSafe reports whether the head lies in the safe operating range.
func (p *Plant) headSafe() bool {
	h := p.head()
	return h >= p.cfg.HeadMin && h <= p.cfg.HeadMax
}

// headRatio is h/h_nom, the scaling of head-dependent quantities.
func (p *Plant) headRatio() float64 { return p.head() / p.cfg.HeadNominal }

// headScale returns (h/h_nom)^1.5, the head scaling of the machine
// limits: they scale with h/h_nom to the 1.5 power, the usual similarity
// law for variable-speed machines.
func (p *Plant) headScale() float64 {
	u, l := math.Float64bits(p.upperV), math.Float64bits(p.lowerV)
	if !p.scaleOK || u != p.scaleU || l != p.scaleL {
		p.scale = math.Pow(p.headRatio(), 1.5)
		p.scaleU, p.scaleL, p.scaleOK = u, l, true
	}
	return p.scale
}

// pumpRange returns the feasible pump power range [MW] at the current
// head. Higher head demands more power to move water: the range shifts up
// with head.
func (p *Plant) pumpRange() (lo, hi float64) {
	s := p.headScale()
	return p.cfg.PumpMinMW * s, p.cfg.PumpMaxMW * s
}

// turbineRange returns the feasible turbine power range [MW] at the
// current head. Low head restricts the maximum output sharply.
func (p *Plant) turbineRange() (lo, hi float64) {
	s := p.headScale()
	return p.cfg.TurbineMinMW * s, p.cfg.TurbineMaxMW * s
}

// cavitationZone returns the turbine forbidden band [MW] at the current
// head (vibration zone, scaled with head). Operation inside the band is
// unsafe and penalized.
func (p *Plant) cavitationZone() (lo, hi float64) {
	s := p.headScale()
	return p.cfg.CavitationLow * s, p.cfg.CavitationHigh * s
}

// turbineEff returns the turbine efficiency at power P [MW]. It peaks at
// ~85% of the head-adjusted maximum and degrades quadratically with power
// deviation and with head deviation from nominal — a smooth non-convex
// performance surface.
func (p *Plant) turbineEff(P float64) float64 {
	_, hi := p.turbineRange()
	if hi <= 0 {
		return 0.01
	}
	frac := P / hi
	dev := frac - 0.85
	hd := p.headRatio() - 1
	eff := p.cfg.TurbineEff * (1 - p.cfg.EffPowerCurvature*dev*dev) * (1 - p.cfg.EffHeadCurvature*hd*hd)
	if eff < 0.05 {
		eff = 0.05
	}
	return eff
}

// pumpEff returns the pump efficiency at power P [MW].
func (p *Plant) pumpEff(P float64) float64 {
	_, hi := p.pumpRange()
	if hi <= 0 {
		return 0.01
	}
	frac := P / hi
	dev := frac - 0.9
	hd := p.headRatio() - 1
	eff := p.cfg.PumpEff * (1 - p.cfg.EffPowerCurvature*dev*dev) * (1 - p.cfg.EffHeadCurvature*hd*hd)
	if eff < 0.05 {
		eff = 0.05
	}
	return eff
}

// turbineFlow returns the discharge [m³/s] needed to generate P MW at the
// current head: Q = P / (η·ρ·g·h).
func (p *Plant) turbineFlow(P float64) float64 {
	h := p.head()
	if h <= 0 {
		return 0
	}
	return P * 1e6 / (p.turbineEff(P) * rhoWater * gravity * h)
}

// pumpFlow returns the lift flow [m³/s] achieved by P MW of pumping:
// Q = η·P / (ρ·g·h).
func (p *Plant) pumpFlow(P float64) float64 {
	h := p.head()
	if h <= 0 {
		return 0
	}
	return p.pumpEff(P) * P * 1e6 / (rhoWater * gravity * h)
}

// moveTurbine discharges volume v [m³] from upper to lower, clamped by
// availability; returns the fraction actually movable.
func (p *Plant) moveTurbine(v float64) float64 {
	if v <= 0 {
		return 1
	}
	avail := math.Min(p.upperV, p.cfg.LowerVolumeMax-p.lowerV)
	frac := 1.0
	if v > avail {
		frac = avail / v
		v = avail
	}
	p.upperV -= v
	p.lowerV += v
	return frac
}

// movePump lifts volume v [m³] from lower to upper, clamped by
// availability; returns the fraction actually movable.
func (p *Plant) movePump(v float64) float64 {
	if v <= 0 {
		return 1
	}
	avail := math.Min(p.lowerV, p.cfg.UpperVolumeMax-p.upperV)
	frac := 1.0
	if v > avail {
		frac = avail / v
		v = avail
	}
	p.lowerV -= v
	p.upperV += v
	return frac
}

// groundwaterStep exchanges water between the lower basin and the
// surrounding rock mass over dt seconds: Darcy-like flow proportional to
// the level difference to the water table. Positive exchange fills the
// basin.
func (p *Plant) groundwaterStep(dtSeconds float64) float64 {
	diff := p.cfg.GroundwaterLevel - p.lowerLevel()
	flow := p.cfg.GroundwaterRate * diff // m³/s, signed
	dv := flow * dtSeconds
	switch {
	case dv > 0:
		room := p.cfg.LowerVolumeMax - p.lowerV
		if dv > room {
			dv = room
		}
	case dv < 0:
		if -dv > p.lowerV {
			dv = -p.lowerV
		}
	}
	p.lowerV += dv
	return dv
}

// inflowStep adds natural inflow [m³/s over dt seconds] to the lower basin.
func (p *Plant) inflowStep(flow, dtSeconds float64) {
	dv := flow * dtSeconds
	if dv < 0 {
		dv = 0
	}
	room := p.cfg.LowerVolumeMax - p.lowerV
	if dv > room {
		dv = room
	}
	p.lowerV += dv
}

// storedEnergyMWh returns the potential energy of the upper reservoir
// relative to the current head, net of turbine efficiency — the water
// value basis for the end-of-day settlement.
func (p *Plant) storedEnergyMWh() float64 {
	h := p.head()
	if h <= 0 {
		return 0
	}
	joules := p.upperV * rhoWater * gravity * h * p.cfg.TurbineEff
	return joules / 3.6e9
}
