package uphes

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// refLevel and refScale are the plant's two math.Pow terms computed from
// the volumes alone: the pit level and the head scaling (h/h_nom)^1.5.
func refLevel(cfg *PlantConfig, lowerV float64) float64 {
	frac := lowerV / cfg.LowerVolumeMax
	if frac < 0 {
		frac = 0
	}
	return cfg.LowerBase + cfg.LowerDepth*math.Pow(frac, cfg.LowerShape)
}

func refScale(cfg *PlantConfig, upperV, lowerV float64) float64 {
	h := cfg.UpperBase + upperV/cfg.UpperArea - refLevel(cfg, lowerV)
	return math.Pow(h/cfg.HeadNominal, 1.5)
}

// fresh clears p's memo, so its next call computes both terms from the
// current volumes: the unmemoized reference for the plant methods built
// on them.
func fresh(p *Plant) *Plant {
	p.levelOK, p.scaleOK = false, false
	return p
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkPlant fails unless every memoized quantity of p equals its
// unmemoized reference bit for bit: the level and the three head-scaled
// ranges against the closed forms, the flows against a clone that
// computes them with no memo carried in.
func checkPlant(t *testing.T, label string, p *Plant) {
	t.Helper()
	cfg := p.cfg
	if got, want := p.lowerLevel(), refLevel(cfg, p.lowerV); !sameBits(got, want) {
		t.Fatalf("%s: lowerLevel %v, reference %v", label, got, want)
	}
	s := refScale(cfg, p.upperV, p.lowerV)
	for _, r := range []struct {
		name   string
		get    func() (float64, float64)
		lo, hi float64
	}{
		{"pumpRange", p.pumpRange, cfg.PumpMinMW * s, cfg.PumpMaxMW * s},
		{"turbineRange", p.turbineRange, cfg.TurbineMinMW * s, cfg.TurbineMaxMW * s},
		{"cavitationZone", p.cavitationZone, cfg.CavitationLow * s, cfg.CavitationHigh * s},
	} {
		if lo, hi := r.get(); !sameBits(lo, r.lo) || !sameBits(hi, r.hi) {
			t.Fatalf("%s: %s (%v, %v), reference (%v, %v)", label, r.name, lo, hi, r.lo, r.hi)
		}
	}
	for _, P := range []float64{0.5, 4.5, 7, 9} {
		if got, want := p.turbineFlow(P), fresh(p.Clone()).turbineFlow(P); !sameBits(got, want) {
			t.Fatalf("%s: turbineFlow(%v) %v, reference %v", label, P, got, want)
		}
		if got, want := p.pumpFlow(P), fresh(p.Clone()).pumpFlow(P); !sameBits(got, want) {
			t.Fatalf("%s: pumpFlow(%v) %v, reference %v", label, P, got, want)
		}
	}
}

// arbitrage is a profitable reference schedule: pump before dawn,
// generate in the morning and evening peaks.
var arbitrage = []float64{-8, -8, 8, 0, 0, 0, 8, 0, 0, 0, 2, 0}

// TestPlantMemoBits pins the plant's memo of its math.Pow terms: after
// every kind of volume change — turbine and pump moves, inflow,
// groundwater exchange, SetState (including the bounds), a Clone and a
// direct write — the level, the three ranges and the flows equal the
// unmemoized reference bit for bit, and so do Detail and SimulateDay on
// seeded schedules against refSimulateOn.
func TestPlantMemoBits(t *testing.T) {
	cfg := DefaultConfig()
	pc := cfg.Plant
	stream := rng.New(41, 1)
	p := NewPlant(&pc)
	checkPlant(t, "new plant", p)
	for step := 0; step < 400; step++ {
		var label string
		switch op := stream.IntN(8); op {
		case 0:
			p.moveTurbine(stream.Uniform(0, 0.3*pc.UpperVolumeMax))
			label = "moveTurbine"
		case 1:
			p.movePump(stream.Uniform(0, 0.3*pc.LowerVolumeMax))
			label = "movePump"
		case 2:
			p.inflowStep(stream.Uniform(0, 4*pc.InflowMean), 900)
			label = "inflowStep"
		case 3:
			p.groundwaterStep(stream.Uniform(0, 3600))
			label = "groundwaterStep"
		case 4:
			p.SetState(PlantState{UpperV: stream.Uniform(0, pc.UpperVolumeMax), LowerV: stream.Uniform(0, pc.LowerVolumeMax)})
			label = "SetState"
		case 5:
			// The bounds, and a volume of one reservoir kept while the
			// other changes.
			bounds := []float64{0, pc.LowerVolumeMax, p.lowerV}
			p.SetState(PlantState{UpperV: stream.Uniform(0, pc.UpperVolumeMax), LowerV: bounds[stream.IntN(len(bounds))]})
			label = "SetState at a bound"
		case 6:
			orig := p
			p = p.Clone()
			p.moveTurbine(stream.Uniform(0, 0.1*pc.UpperVolumeMax))
			checkPlant(t, "original after its clone moved", orig)
			label = "Clone"
		default:
			p.upperV = stream.Uniform(0, pc.UpperVolumeMax)
			label = "direct write"
		}
		checkPlant(t, fmt.Sprintf("step %d after %s", step, label), p)
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := s.Bounds()
	schedules := [][]float64{arbitrage, make([]float64, Dim)}
	for i := 0; i < 24; i++ {
		schedules = append(schedules, stream.UniformVec(lo, hi))
	}
	in := testDayInput(&cfg)
	in.Activated = [ReserveSlots]float64{0.5, 0, 1, 0.25}
	for i, x := range schedules {
		got := s.Detail(x)
		var want Breakdown
		for k := range s.scenarios {
			b := refSimulateOn(s, x, &s.scenarios[k], NewPlant(&s.cfg.Plant), nil)
			want.EnergyRevenue += b.EnergyRevenue
			want.ReserveRevenue += b.ReserveRevenue
			want.StoredValue += b.StoredValue
			want.ImbalancePenalty += b.ImbalancePenalty
			want.ReservePenalty += b.ReservePenalty
			want.CavitationPenalty += b.CavitationPenalty
		}
		n := float64(len(s.scenarios))
		want.EnergyRevenue /= n
		want.ReserveRevenue /= n
		want.StoredValue /= n
		want.ImbalancePenalty /= n
		want.ReservePenalty /= n
		want.CavitationPenalty /= n
		want.Profit = want.EnergyRevenue + want.ReserveRevenue + want.StoredValue -
			want.ImbalancePenalty - want.ReservePenalty - want.CavitationPenalty -
			s.cfg.Market.DailyFixedCost
		checkBreakdown(t, fmt.Sprintf("schedule %d: Detail", i), *got, want)

		start := PlantState{UpperV: stream.Uniform(0, pc.UpperVolumeMax), LowerV: stream.Uniform(0, pc.LowerVolumeMax)}
		gotB, gotEnd, gotDM := s.SimulateDay(x, start, in)
		pl := NewPlant(&s.cfg.Plant)
		pl.SetState(start)
		var wantDM DayMetrics
		sc := scenario{price: in.Price, inflow: in.Inflow, activated: in.Activated}
		wantB := refSimulateOn(s, x, &sc, pl, &wantDM)
		wantB.Profit = wantB.EnergyRevenue + wantB.ReserveRevenue + wantB.StoredValue -
			wantB.ImbalancePenalty - wantB.ReservePenalty - wantB.CavitationPenalty -
			s.cfg.Market.DailyFixedCost
		label := fmt.Sprintf("schedule %d: SimulateDay", i)
		checkBreakdown(t, label, gotB, wantB)
		if wantEnd := pl.State(); !sameBits(gotEnd.UpperV, wantEnd.UpperV) || !sameBits(gotEnd.LowerV, wantEnd.LowerV) {
			t.Fatalf("%s: end state %+v, reference %+v", label, gotEnd, wantEnd)
		}
		if gotDM != wantDM {
			t.Fatalf("%s: metrics %+v, reference %+v", label, gotDM, wantDM)
		}
	}
}

func checkBreakdown(t *testing.T, label string, got, want Breakdown) {
	t.Helper()
	g := []float64{got.EnergyRevenue, got.ReserveRevenue, got.StoredValue, got.ImbalancePenalty, got.ReservePenalty, got.CavitationPenalty, got.Profit}
	w := []float64{want.EnergyRevenue, want.ReserveRevenue, want.StoredValue, want.ImbalancePenalty, want.ReservePenalty, want.CavitationPenalty, want.Profit}
	for i := range g {
		if !sameBits(g[i], w[i]) {
			t.Fatalf("%s: breakdown %+v, reference %+v", label, got, want)
		}
	}
}

// refSimulateOn is simulateOn with the plant's memo cleared before every
// plant call that reads it, so each call computes the level and the head
// scaling from the volumes of that moment.
func refSimulateOn(s *Simulator, x []float64, sc *scenario, pl *Plant, dm *DayMetrics) Breakdown {
	cfg := &s.cfg
	if dm != nil {
		dm.init(pl)
	}
	var b Breakdown
	startEnergy := fresh(pl).storedEnergyMWh()
	dtSec := StepHours * 3600
	for t := 0; t < Steps; t++ {
		slot := t / (Steps / EnergySlots)
		rslot := t / (Steps / ReserveSlots)
		price := sc.price[t]
		set := x[slot]
		reserve := x[EnergySlots+rslot]

		pl.inflowStep(sc.inflow, dtSec)
		fresh(pl).groundwaterStep(dtSec)

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
		if !fresh(pl).headSafe() {
			if mode == modeTurbine {
				b.ImbalancePenalty += target * StepHours * price * cfg.Market.ImbalanceBuyFactor
			} else if mode == modePump {
				b.ImbalancePenalty += target * StepHours * price * 0.5
			}
			mode = modeIdle
		}

		switch mode {
		case modeTurbine:
			scheduled := target
			lo, hi := fresh(pl).turbineRange()
			p := clamp(target, lo, hi)
			if reserve > 0 && p+reserve > hi {
				p = math.Max(lo, hi-reserve)
			}
			if czLo, czHi := fresh(pl).cavitationZone(); p > czLo && p < czHi {
				b.CavitationPenalty += cfg.Market.CavitationPenalty * p * StepHours
				if p-czLo < czHi-p {
					p = czLo
				} else {
					p = czHi
				}
			}
			vol := fresh(pl).turbineFlow(p) * dtSec
			frac := pl.moveTurbine(vol)
			delivered := p * frac
			b.EnergyRevenue += delivered * StepHours * price
			if shortfall := scheduled - delivered; shortfall > 1e-9 {
				b.ImbalancePenalty += shortfall * StepHours * price * cfg.Market.ImbalanceBuyFactor
			}
		case modePump:
			scheduled := target
			lo, hi := fresh(pl).pumpRange()
			p := clamp(target, lo, hi)
			vol := fresh(pl).pumpFlow(p) * dtSec
			frac := pl.movePump(vol)
			consumed := p * frac
			b.EnergyRevenue -= consumed * StepHours * price
			if shortfall := scheduled - consumed; shortfall > 1e-9 {
				b.ImbalancePenalty += shortfall * StepHours * price * 0.5
			}
		}

		if reserve > 0 {
			_, hi := fresh(pl).turbineRange()
			current := 0.0
			if mode == modeTurbine {
				current = math.Min(x[slot], hi)
			}
			headroom := hi - current
			if !fresh(pl).headSafe() || mode == modePump {
				headroom = 0
			}
			if headroom+1e-9 < reserve {
				miss := reserve - math.Max(headroom, 0)
				b.ReservePenalty += miss * StepHours * cfg.Market.ReserveShortfallPenalty
			}
			b.ReserveRevenue += reserve * StepHours * cfg.Market.ReserveCapacityPrice
			if act := sc.activated[rslot]; act > 0 {
				want := reserve * act
				deliverable := math.Min(want, math.Max(headroom, 0))
				if deliverable > 0 && fresh(pl).headSafe() {
					vol := fresh(pl).turbineFlow(deliverable) * dtSec
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
	endEnergy := fresh(pl).storedEnergyMWh()
	delta := endEnergy - startEnergy
	if delta >= 0 {
		b.StoredValue = delta * sc.averagePrice() * s.cfg.Market.StoredSurplusFactor
	} else {
		b.StoredValue = delta * sc.averagePrice() * s.cfg.Market.StoredDeficitFactor
	}
	return b
}
