package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/benchfunc"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// TableBenchmarkDefs renders the paper's Table 1: the benchmark function
// definitions, domains and minima.
func TableBenchmarkDefs() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — Benchmark function definitions (d = 12)\n")
	fmt.Fprintf(&b, "%-12s %-18s %10s\n", "Name", "Domain", "f_min")
	for _, f := range benchfunc.PaperSuite() {
		fmt.Fprintf(&b, "%-12s [%g, %g]^%d %10g\n", f.Name, f.Lo[0], f.Hi[0], f.Dim, f.Min)
	}
	return b.String()
}

// TableBudget renders the paper's Table 2: the budget allocation per batch
// size.
func TableBudget(batches []int, budget time.Duration) string {
	if len(batches) == 0 {
		batches = []int{1, 2, 4, 8, 16}
	}
	if budget <= 0 {
		budget = 20 * time.Minute
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — Budget allocation per batch size\n")
	fmt.Fprintf(&b, "%-8s %-28s %-24s\n", "n_batch", "initial sample (simulations)", "simulation budget (min)")
	for _, q := range batches {
		fmt.Fprintf(&b, "%-8d %-28d %-24.0f\n", q, 16*q, budget.Minutes())
	}
	return b.String()
}

// TableAcquisitionMatrix renders the paper's Table 3: the acquisition
// function used by each algorithm at each batch size.
func TableAcquisitionMatrix(batches []int) string {
	if len(batches) == 0 {
		batches = []int{1, 2, 4, 8, 16}
	}
	order := []string{"TuRBO", "MC-based q-EGO", "KB-q-EGO", "mic-q-EGO", "BSP-EGO"}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — Acquisition function per algorithm and batch size\n")
	fmt.Fprintf(&b, "%-8s", "n_batch")
	for _, alg := range order {
		fmt.Fprintf(&b, " %-15s", alg)
	}
	b.WriteByte('\n')
	for _, q := range batches {
		fmt.Fprintf(&b, "%-8d", q)
		for _, alg := range order {
			fmt.Fprintf(&b, " %-15s", strategy.AcquisitionFor(alg, q))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FinalValueTable renders a Tables 4–6 style matrix: mean and standard
// deviation of the final objective per algorithm and batch size, with the
// per-row best mean marked.
func (r *StudyResult) FinalValueTable(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-8s", "n_batch")
	for _, alg := range r.Config.Algorithms {
		fmt.Fprintf(&b, " %-22s", alg+" (mean/sd)")
	}
	b.WriteByte('\n')
	for _, q := range r.sortedBatches() {
		fmt.Fprintf(&b, "%-8d", q)
		// Find best mean for the row marker.
		bestAlg := ""
		bestMean := 0.0
		for i, alg := range r.Config.Algorithms {
			s := r.CellSummary(alg, q)
			if i == 0 || (r.Minimize && s.Mean < bestMean) || (!r.Minimize && s.Mean > bestMean) {
				bestAlg, bestMean = alg, s.Mean
			}
		}
		for _, alg := range r.Config.Algorithms {
			s := r.CellSummary(alg, q)
			mark := " "
			if alg == bestAlg {
				mark = "*"
			}
			fmt.Fprintf(&b, " %-22s", fmt.Sprintf("%s%9.1f / %-8.1f", mark, s.Mean, s.SD))
		}
		b.WriteByte('\n')
	}
	b.WriteString("(* best mean in row)\n")
	return b.String()
}

// Table7 renders the paper's Table 7: min/mean/max/sd of the UPHES profit
// per algorithm, one block per batch size.
func (r *StudyResult) Table7() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7 — UPHES final profit statistics (EUR) over %d runs\n", r.Config.Replications)
	for _, q := range r.sortedBatches() {
		fmt.Fprintf(&b, "\nn_batch = %d\n", q)
		fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s\n", "", "min", "mean", "max", "sd")
		for _, alg := range r.Config.Algorithms {
			s := r.CellSummary(alg, q)
			fmt.Fprintf(&b, "%-16s %10.0f %10.0f %10.0f %10.0f\n", alg, s.Min, s.Mean, s.Max, s.SD)
		}
	}
	return b.String()
}

// ScalabilityTable renders Figure 2 / Figure 9a data: the mean (sd) number
// of simulations per batch size and algorithm.
func (r *StudyResult) ScalabilityTable(kind string) string {
	var b strings.Builder
	metric := r.EvalCounts
	switch kind {
	case "evals":
		fmt.Fprintf(&b, "Number of simulations in the time budget (mean/sd over %d runs) — %s\n",
			r.Config.Replications, r.Problem)
	case "cycles":
		metric = r.CycleCounts
		fmt.Fprintf(&b, "Number of cycles in the time budget (mean/sd over %d runs) — %s\n",
			r.Config.Replications, r.Problem)
	default:
		panic(fmt.Sprintf("experiments: unknown scalability kind %q", kind))
	}
	fmt.Fprintf(&b, "%-8s", "n_batch")
	for _, alg := range r.Config.Algorithms {
		fmt.Fprintf(&b, " %-18s", alg)
	}
	b.WriteByte('\n')
	for _, q := range r.sortedBatches() {
		fmt.Fprintf(&b, "%-8d", q)
		for _, alg := range r.Config.Algorithms {
			vals := metric(alg, q)
			if len(vals) == 0 {
				fmt.Fprintf(&b, " %-18s", "-")
				continue
			}
			s := stats.Summarize(vals)
			fmt.Fprintf(&b, " %-18s", fmt.Sprintf("%7.1f / %-6.1f", s.Mean, s.SD))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ConvergenceCSV renders a Figures 3–7 series as CSV: one row per
// simulation index, mean and sd columns per algorithm.
func (r *StudyResult) ConvergenceCSV(q int) string {
	var b strings.Builder
	b.WriteString("evals")
	traces := make(map[string][]ConvergencePoint, len(r.Config.Algorithms))
	maxLen := 0
	for _, alg := range r.Config.Algorithms {
		tr := r.ConvergenceTrace(alg, q)
		traces[alg] = tr
		if len(tr) > maxLen {
			maxLen = len(tr)
		}
		fmt.Fprintf(&b, ",%s_mean,%s_sd", alg, alg)
	}
	b.WriteByte('\n')
	for i := 0; i < maxLen; i++ {
		fmt.Fprintf(&b, "%d", i+1)
		for _, alg := range r.Config.Algorithms {
			tr := traces[alg]
			if i < len(tr) {
				fmt.Fprintf(&b, ",%.4f,%.4f", tr[i].Mean, tr[i].SD)
			} else {
				b.WriteString(",,")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PValueHeatmap renders the Figure 8 matrix for one batch size. A study
// of fewer than two replications has no t-test to run; its heatmap is a
// one-line note instead, so the rest of the study's outputs still render.
func (r *StudyResult) PValueHeatmap(q int) (string, error) {
	if n := r.Config.Replications; n < 2 {
		return fmt.Sprintf("No pairwise t-test p-values for %s, n_batch = %d: %d replication per cell, the test needs at least 2\n",
			r.Problem, q, n), nil
	}
	m, order, err := r.PValueMatrix(q)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Pairwise Student's t-test p-values, %s, n_batch = %d\n", r.Problem, q)
	fmt.Fprintf(&b, "%-16s", "")
	for _, alg := range order {
		fmt.Fprintf(&b, " %-15s", alg)
	}
	b.WriteByte('\n')
	for i, alg := range order {
		fmt.Fprintf(&b, "%-16s", alg)
		for j := range order {
			fmt.Fprintf(&b, " %-15.3f", m[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
