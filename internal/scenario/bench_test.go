package scenario

import (
	"context"
	"testing"

	"repro/internal/core"
)

// benchFleetCfg is the throughput workload: a small in-process fleet
// whose members are fully independent, so member-level parallelism is
// pure speedup. The per-day budget is kept tiny — the metric under test
// is the fleet driver's scheduling, not GP quality.
func benchFleetCfg(par int) FleetConfig {
	return FleetConfig{
		Gen:     GenConfig{Seed: 9, Members: 4},
		Days:    3,
		Horizon: 1,
		Opt: OptConfig{
			Strategy:    "mic-q-EGO",
			BatchSize:   2,
			InitSamples: 4,
			MaxCycles:   2,
			Model:       core.ModelConfig{MaxIter: 5, Restarts: 1},
			Seed:        9,
		},
		Parallel: par,
	}
}

// benchFleet runs the fleet b.N times and reports days-per-minute: total
// committed operational days per minute of wall time. bench.sh -check
// holds BenchmarkFleetParallel's value at or above
// BenchmarkFleetSerial's whenever GOMAXPROCS > 1.
func benchFleet(b *testing.B, par int) {
	cfg := benchFleetCfg(par)
	days := 0
	for i := 0; i < b.N; i++ {
		rep, err := (&Fleet{Cfg: cfg, Runner: LocalRunner{}}).Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		days += rep.Members * rep.Days
	}
	if min := b.Elapsed().Minutes(); min > 0 {
		b.ReportMetric(float64(days)/min, "days-per-minute")
	}
}

func BenchmarkFleetSerial(b *testing.B) { benchFleet(b, 1) }

func BenchmarkFleetParallel(b *testing.B) { benchFleet(b, 4) }
