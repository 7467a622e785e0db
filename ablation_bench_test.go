// Ablation benchmarks for the design choices called out in DESIGN.md §5:
// the mic-q-EGO criterion mix, the multi-infill TuRBO variant the paper
// proposes as future work, BSP-EGO's candidate oversampling factor, and
// the subset-of-data cap on GP fitting. Each ablation runs matched short
// UPHES optimizations and reports the final profit as a benchmark metric.
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

func BenchmarkAblation_MicCriteria(b *testing.B) {
	variants := []struct {
		name     string
		criteria []string
	}{
		{"EI-only", []string{strategy.CritEI}},
		{"EI+UCB (paper)", []string{strategy.CritEI, strategy.CritUCB}},
		{"EI+UCB+PI", []string{strategy.CritEI, strategy.CritUCB, strategy.CritPI}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := strategy.NewMICQEGO()
				s.Criteria = v.criteria
				res := ablationRun(b, s, core.ModelConfig{}, 21)
				if i == 0 {
					fmt.Printf("mic criteria %-16s: best %8.0f EUR (%d sims)\n", v.name, res.BestY, res.Evals)
				}
				b.ReportMetric(res.BestY, "bestEUR")
			}
		})
	}
}

func BenchmarkAblation_TuRBOMultiInfill(b *testing.B) {
	for _, multi := range []bool{false, true} {
		name := "qEI (paper)"
		if multi {
			name = "multi-infill (future work)"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := strategy.NewTuRBO()
				s.MultiInfill = multi
				res := ablationRun(b, s, core.ModelConfig{}, 22)
				if i == 0 {
					fmt.Printf("TuRBO %-26s: best %8.0f EUR (%d sims)\n", name, res.BestY, res.Evals)
				}
				b.ReportMetric(res.BestY, "bestEUR")
			}
		})
	}
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

// BenchmarkExtension_Strategies compares the batch APs implemented beyond
// the paper (strategy.ExtendedNames: the UCB1 acquisition portfolio)
// against the paper's best UPHES performer on a matched short budget.
func BenchmarkExtension_Strategies(b *testing.B) {
	names := append([]string{"mic-q-EGO"}, strategy.ExtendedNames...)
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := strategy.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				res := ablationRun(b, s, core.ModelConfig{}, 26)
				if i == 0 {
					fmt.Printf("extension %-10s: best %8.0f EUR (%d sims, %d cycles)\n",
						name, res.BestY, res.Evals, res.Cycles)
				}
				b.ReportMetric(res.BestY, "bestEUR")
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
