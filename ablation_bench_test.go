// Ablation benchmarks for the design choices called out in DESIGN.md §5:
// BSP-EGO's candidate oversampling factor, the subset-of-data cap on GP
// fitting and the refit schedule. Each ablation runs matched short UPHES
// optimizations and reports the final profit as a benchmark metric.
package pbo

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/strategy"
	"repro/internal/uphes"
)

// ablationRun executes one short UPHES run with a custom strategy.
func ablationRun(b *testing.B, s core.Strategy, model core.ModelConfig, seed uint64) *core.Result {
	b.Helper()
	sim, err := uphes.New(uphes.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := sim.Bounds()
	e := &core.Engine{
		Problem: &core.Problem{
			Name: "uphes", Lo: lo, Hi: hi, Minimize: false, Evaluator: sim,
		},
		Strategy:  s,
		BatchSize: 4,
		Budget:    90 * time.Second,
		Model:     model,
		Seed:      seed,
	}
	res, err := e.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkAblation_BSPOversample(b *testing.B) {
	for _, over := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ncand=%dq", over), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := strategy.NewBSPEGO()
				s.OverSample = over
				res := ablationRun(b, s, core.ModelConfig{}, 23)
				if i == 0 {
					fmt.Printf("BSP oversample %d×q: best %8.0f EUR (%d sims, %d cycles)\n",
						over, res.BestY, res.Evals, res.Cycles)
				}
				b.ReportMetric(res.BestY, "bestEUR")
			}
		})
	}
}

func BenchmarkAblation_FitSubset(b *testing.B) {
	for _, cap := range []int{32, 128, 100000} {
		name := fmt.Sprintf("subset=%d", cap)
		if cap > 1000 {
			name = "subset=all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := ablationRun(b, strategy.NewKBQEGO(),
					core.ModelConfig{FitSubsetMax: cap}, 24)
				if i == 0 {
					fmt.Printf("fit %-12s: best %8.0f EUR (%d cycles)\n", name, res.BestY, res.Cycles)
				}
				b.ReportMetric(res.BestY, "bestEUR")
				b.ReportMetric(float64(res.Cycles), "cycles")
			}
		})
	}
}

func BenchmarkAblation_RefitEvery(b *testing.B) {
	for _, k := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("refitEvery=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := ablationRun(b, strategy.NewKBQEGO(),
					core.ModelConfig{RefitEvery: k}, 25)
				if i == 0 {
					fmt.Printf("refit every %d: best %8.0f EUR (%d cycles)\n", k, res.BestY, res.Cycles)
				}
				b.ReportMetric(res.BestY, "bestEUR")
				b.ReportMetric(float64(res.Cycles), "cycles")
			}
		})
	}
}

// BenchmarkBaselines_EqualBudget reproduces the motivation experiment: BO
// against random search, GA and PSO at the same number of expensive
// simulations.
func BenchmarkBaselines_EqualBudget(b *testing.B) {
	simCfg := uphes.DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunBaselineComparison(simCfg, "mic-q-EGO", 4, 2, 2*time.Minute, 27)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Print(experiments.RenderBaselines(rows))
		}
		b.ReportMetric(rows[0].Best.Mean, "boMeanEUR")
		b.ReportMetric(rows[1].Best.Mean, "randomMeanEUR")
	}
}
