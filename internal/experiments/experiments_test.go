package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/benchfunc"
	"repro/internal/uphes"
)

// tinyStudy is a fast configuration for tests: 2 algorithms, 2 batch
// sizes, 2 reps, 30-second virtual budget.
func tinyStudy() StudyConfig {
	return StudyConfig{
		Algorithms:     []string{"KB-q-EGO", "BSP-EGO"},
		BatchSizes:     []int{1, 2},
		Replications:   2,
		Budget:         30 * time.Second,
		SimLatency:     10 * time.Second,
		OverheadFactor: 1,
		Seed:           5,
	}
}

func TestRunBenchmarkStudy(t *testing.T) {
	res, err := RunBenchmarkStudy(benchfunc.Ackley(3), tinyStudy())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2*2*2 {
		t.Fatalf("got %d runs", len(res.Runs))
	}
	if !res.Minimize {
		t.Fatal("benchmark study must minimize")
	}
	for key, run := range res.Runs {
		if run.Evals < 16*key.Batch {
			t.Fatalf("%+v: evals %d below initial design", key, run.Evals)
		}
	}
}

func TestRunUPHESStudy(t *testing.T) {
	simCfg := uphes.DefaultConfig()
	simCfg.Scenarios = 4 // fast
	cfg := tinyStudy()
	cfg.Algorithms = []string{"mic-q-EGO"}
	cfg.BatchSizes = []int{2}
	res, err := RunUPHESStudy(simCfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Minimize {
		t.Fatal("UPHES study must maximize")
	}
	if len(res.Runs) != 2 {
		t.Fatalf("got %d runs", len(res.Runs))
	}
}

func TestStudyAccessors(t *testing.T) {
	res, err := RunBenchmarkStudy(benchfunc.Rastrigin(2), tinyStudy())
	if err != nil {
		t.Fatal(err)
	}
	vals := res.FinalValues("KB-q-EGO", 1)
	if len(vals) != 2 {
		t.Fatalf("final values = %v", vals)
	}
	s := res.CellSummary("KB-q-EGO", 1)
	if s.N != 2 || s.Min > s.Max {
		t.Fatalf("summary = %+v", s)
	}
	evals := res.EvalCounts("BSP-EGO", 2)
	cycles := res.CycleCounts("BSP-EGO", 2)
	if len(evals) != 2 || len(cycles) != 2 {
		t.Fatal("missing count data")
	}
	for i := range evals {
		if evals[i] < cycles[i] {
			t.Fatal("evals < cycles is impossible")
		}
	}
}

func TestConvergenceTrace(t *testing.T) {
	res, err := RunBenchmarkStudy(benchfunc.Ackley(2), tinyStudy())
	if err != nil {
		t.Fatal(err)
	}
	tr := res.ConvergenceTrace("KB-q-EGO", 1)
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	prev := tr[0].Mean
	for _, pt := range tr[1:] {
		if pt.Mean > prev+1e-9 { // minimization: mean best-so-far decreases
			t.Fatalf("trace mean increased: %v -> %v", prev, pt.Mean)
		}
		prev = pt.Mean
		if pt.SD < 0 {
			t.Fatal("negative sd")
		}
	}
}

func TestPValueMatrix(t *testing.T) {
	res, err := RunBenchmarkStudy(benchfunc.Ackley(2), tinyStudy())
	if err != nil {
		t.Fatal(err)
	}
	m, order, err := res.PValueMatrix(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(order) || len(order) != 2 {
		t.Fatalf("matrix %dx%d", len(m), len(order))
	}
	if m[0][0] != 1 || m[0][1] != m[1][0] {
		t.Fatal("matrix shape wrong")
	}
}

func TestRandomSamplingReference(t *testing.T) {
	simCfg := uphes.DefaultConfig()
	simCfg.Scenarios = 4
	best, summary, err := RandomSamplingReference(simCfg, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best < summary.Mean {
		t.Fatalf("best %v below the sample mean %v", best, summary.Mean)
	}
	if summary.Mean > 0 {
		t.Fatalf("random schedules should lose money on average: %v", summary.Mean)
	}
}

func TestRenderedTables(t *testing.T) {
	t1 := TableBenchmarkDefs()
	for _, want := range []string{"rosenbrock", "ackley", "schwefel", "[-500, 500]^12"} {
		if !strings.Contains(t1, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, t1)
		}
	}
	t2 := TableBudget(nil, 0)
	for _, want := range []string{"16", "256", "20"} {
		if !strings.Contains(t2, want) {
			t.Fatalf("table 2 missing %q:\n%s", want, t2)
		}
	}
	t3 := TableAcquisitionMatrix(nil)
	for _, want := range []string{"qEI", "EI/UCB (50%)", "TuRBO"} {
		if !strings.Contains(t3, want) {
			t.Fatalf("table 3 missing %q:\n%s", want, t3)
		}
	}
}

func TestStudyRenderers(t *testing.T) {
	res, err := RunBenchmarkStudy(benchfunc.Ackley(2), tinyStudy())
	if err != nil {
		t.Fatal(err)
	}
	ft := res.FinalValueTable("Table X")
	if !strings.Contains(ft, "KB-q-EGO") || !strings.Contains(ft, "*") {
		t.Fatalf("final table malformed:\n%s", ft)
	}
	t7 := res.Table7()
	if !strings.Contains(t7, "min") || !strings.Contains(t7, "n_batch = 2") {
		t.Fatalf("table 7 malformed:\n%s", t7)
	}
	sc := res.ScalabilityTable("evals")
	if !strings.Contains(sc, "simulations") {
		t.Fatalf("scalability table malformed:\n%s", sc)
	}
	cy := res.ScalabilityTable("cycles")
	if !strings.Contains(cy, "cycles") {
		t.Fatalf("cycles table malformed:\n%s", cy)
	}
	csv := res.ConvergenceCSV(1)
	if !strings.HasPrefix(csv, "evals,") || !strings.Contains(csv, "KB-q-EGO_mean") {
		t.Fatalf("csv malformed:\n%s", csv[:min(len(csv), 200)])
	}
	hm, err := res.PValueHeatmap(1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hm, "p-values") {
		t.Fatalf("heatmap malformed:\n%s", hm)
	}
}

func TestScalabilityTableUnknownKindPanics(t *testing.T) {
	res := &StudyResult{Config: tinyStudy()}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	res.ScalabilityTable("bogus")
}

func TestStudySharedInitialSets(t *testing.T) {
	// The paper uses the same initial sets for all approaches: the first
	// 16·q evaluations of any two algorithms at the same (batch, rep)
	// must coincide.
	cfg := tinyStudy()
	cfg.BatchSizes = []int{2}
	cfg.Replications = 1
	res, err := RunBenchmarkStudy(benchfunc.Ackley(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Runs[RunKey{"KB-q-EGO", 2, 0}]
	b := res.Runs[RunKey{"BSP-EGO", 2, 0}]
	for i := 0; i < 32; i++ {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("initial design diverged at %d: %v vs %v", i, a.Y[i], b.Y[i])
		}
	}
}

func TestBaselineComparison(t *testing.T) {
	simCfg := uphes.DefaultConfig()
	simCfg.Scenarios = 4
	rows, err := RunBaselineComparison(simCfg, "KB-q-EGO", 2, 2, 40*time.Second, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].Name != "KB-q-EGO (q=2)" {
		t.Fatalf("first row = %q", rows[0].Name)
	}
	for _, r := range rows[1:] {
		if r.Evals <= 0 {
			t.Fatalf("baseline %s got no evaluations", r.Name)
		}
	}
	out := RenderBaselines(rows)
	if !strings.Contains(out, "random search") || !strings.Contains(out, "PSO") {
		t.Fatalf("render malformed:\n%s", out)
	}
}

// TestOneReplicationStudyRendersEveryOutput: a study of one replication
// per cell (paperrepro -reps 1) renders every output paperrepro writes —
// tables, scalability figures, convergence traces and plots — and its
// Figure 8 heatmap is a one-line note instead of the t-test's error.
func TestOneReplicationStudyRendersEveryOutput(t *testing.T) {
	cfg := tinyStudy()
	cfg.Replications = 1
	res, err := RunBenchmarkStudy(benchfunc.Ackley(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	outputs := []string{
		res.FinalValueTable("Table X"),
		res.Table7(),
		res.ScalabilityTable("evals"),
		res.ScalabilityTable("cycles"),
	}
	for _, q := range cfg.BatchSizes {
		hm, err := res.PValueHeatmap(q)
		if err != nil {
			t.Fatalf("q=%d: PValueHeatmap: %v", q, err)
		}
		if !strings.Contains(hm, "needs at least 2") || strings.Count(hm, "\n") != 1 {
			t.Fatalf("q=%d: heatmap is not the one-line note:\n%s", q, hm)
		}
		outputs = append(outputs, res.ConvergenceCSV(q), res.ConvergencePlot(q), hm)
	}
	for i, out := range outputs {
		if strings.TrimSpace(out) == "" {
			t.Fatalf("output %d is empty", i)
		}
	}
}
