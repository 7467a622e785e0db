package analysis

import (
	"go/ast"
	"strings"
)

// GoDiscipline forbids bare `go` statements outside internal/parallel.
// The paper's protocol makes the batch size q ∈ {1,2,4,8,16} the only
// parallelism knob; every goroutine must be spawned by internal/parallel —
// the evaluation pool (Pool.EvalBatch), ForEach for work that must run at
// the same time, or the budgeted Compute and ForEachBand for CPU work —
// so concurrency stays accounted for in the virtual-time model and the
// process-wide helper budget, and deterministic replay holds.
var GoDiscipline = &Analyzer{
	Name: "godiscipline",
	Doc:  "forbid bare go statements outside internal/parallel; goroutines go through the bounded worker pool",
	Run:  runGoDiscipline,
}

func runGoDiscipline(p *Pass) {
	if pathHasSuffix(strings.TrimSuffix(p.PkgPath, "_test"), "internal/parallel") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "bare go statement: route goroutines through internal/parallel (Pool.EvalBatch, ForEach, or the budgeted Compute and ForEachBand) so the batch size stays the only parallelism knob")
			}
			return true
		})
	}
}
