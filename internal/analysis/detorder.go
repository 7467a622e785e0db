package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetOrder mechanizes three order-determinism invariants that golden
// traces cannot diagnose — they only detect the damage after the fact:
//
//  1. No accumulation in map-iteration order. A `range` over a map whose
//     body appends to an outer slice or writes output observes Go's
//     randomized iteration order; unless a sort call follows the loop in
//     the same function, the result differs run to run.
//  2. No wall-clock reads outside the injected-clock seams. time.Now,
//     time.Since and time.Until (calls or references) are forbidden in
//     library packages; cmd/ main packages and tests are exempt. The
//     sanctioned defaults for injectable clocks carry reasoned
//     suppressions.
//  3. No rng.Stream use lexically inside a parallel region. Stream
//     methods (Split included) advance the parent stream's state, so
//     calling one on a stream captured by the body of an internal/parallel
//     fan-out (ForEach, ForEachBand, Compute) or by a `go` function
//     literal is both a data race and a replay hazard —
//     the PR-1 BSP-EGO bug. Streams must be split serially before the
//     region, one per index; draws on a per-index stream obtained by
//     indexing (streams[i]) are allowed.
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc:  "no map-order accumulation, wall-clock reads, or rng use inside parallel regions",
	Run:  runDetOrder,
}

func runDetOrder(p *Pass) {
	for _, f := range p.Files {
		checkWallClock(p, f)
		forEachFuncScope(f, func(body *ast.BlockStmt) {
			checkMapOrder(p, body)
		})
		checkParallelRNG(p, f)
	}
}

// checkWallClock reports calls to and references of time.Now/Since/Until
// outside main packages and test files.
func checkWallClock(p *Pass, f *ast.File) {
	if p.PkgName == "main" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		switch fn.Name() {
		case "Now", "Since", "Until":
		default:
			return true
		}
		if p.InTestFile(sel.Pos()) {
			return true
		}
		p.Reportf(sel.Pos(), "time.%s outside an injected-clock seam: wall-clock reads break bit-identical replay; thread a clock through the config, or //lint:ignore detorder <reason>", fn.Name())
		return true
	})
}

// checkMapOrder reports `range` statements over maps whose bodies
// accumulate into outer state, unless a sort call follows the loop in the
// same function scope. Test files are exempt.
func checkMapOrder(p *Pass, body *ast.BlockStmt) {
	// Sort calls in this scope, by position; a range is fine when any sort
	// runs after it.
	var sortEnds []ast.Node
	scopeStmts(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := callee(p, call); fn != nil && fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "sort", "slices":
				sortEnds = append(sortEnds, call)
			}
		}
		return true
	})
	sortFollows := func(pos ast.Node) bool {
		for _, s := range sortEnds {
			if s.Pos() > pos.End() {
				return true
			}
		}
		return false
	}
	scopeStmts(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if p.InTestFile(rng.Pos()) {
			return true
		}
		kind, at := mapOrderAccumulation(p, rng)
		if kind == "" || sortFollows(rng) {
			return true
		}
		p.Reportf(at.Pos(), "%s inside a map range without a sort after the loop: map iteration order is randomized, so the result differs run to run; sort afterwards, or //lint:ignore detorder <reason>", kind)
		return true
	})
}

// mapOrderAccumulation scans a map-range body for order-sensitive sinks:
// appends to a variable declared outside the loop, and output-style calls.
func mapOrderAccumulation(p *Pass, rng *ast.RangeStmt) (kind string, at ast.Node) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if kind != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && id.Name == "append" && len(call.Args) > 0 {
			if base, isBase := ast.Unparen(call.Args[0]).(*ast.Ident); isBase {
				if v, isVar := p.Info.Uses[base].(*types.Var); isVar && (v.Pos() < rng.Pos() || v.Pos() > rng.End()) {
					kind, at = "append to an outer slice", call
					return false
				}
			}
			return true
		}
		if fn := callee(p, call); fn != nil {
			switch fn.Name() {
			case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf", "Write", "WriteString", "Reportf":
				kind, at = "output written in "+fn.Name(), call
				return false
			}
		}
		return true
	})
	return kind, at
}

// checkParallelRNG reports Stream method calls on captured streams inside
// parallel regions: the body literals of internal/parallel's fan-outs and
// `go` literals.
func checkParallelRNG(p *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := callee(p, n)
			if fn == nil || !isFanOut(fn) || len(n.Args) == 0 {
				return true
			}
			if lit, ok := n.Args[len(n.Args)-1].(*ast.FuncLit); ok {
				checkRegionRNG(p, lit, "parallel."+fn.Name()+" body")
			}
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				checkRegionRNG(p, lit, "go statement")
			}
		}
		return true
	})
}

// isFanOut matches the package-level fan-outs of internal/parallel whose
// last argument runs on several goroutines: ForEach, ForEachBand and
// Compute. The fixture package mirrors them under its own path, as it
// mirrors rng.Stream (isStreamType).
func isFanOut(fn *types.Func) bool {
	switch fn.Name() {
	case "ForEach", "ForEachBand", "Compute":
	default:
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return pathHasSuffix(path, "internal/parallel") || strings.HasSuffix(path, "detorder")
}

// checkRegionRNG flags rng.Stream method calls whose receiver is a bare
// identifier declared outside the region's function literal — a stream
// shared across concurrently running workers. Receivers that index into a
// pre-split slice (streams[i]) or are declared inside the literal are the
// sanctioned pattern and stay silent.
func checkRegionRNG(p *Pass, lit *ast.FuncLit, region string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || !isStreamType(sig.Recv().Type()) {
			return true
		}
		recv, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true // streams[i].Draw(): per-index stream, sanctioned
		}
		v, ok := p.Info.Uses[recv].(*types.Var)
		if !ok {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // stream created inside the region
		}
		p.Reportf(call.Pos(), "rng.Stream.%s on stream %q captured by a %s: Stream methods advance shared state, a data race under -race and a replay hazard always; split one stream per index before the region, or //lint:ignore detorder <reason>", fn.Name(), v.Name(), region)
		return true
	})
}

// isStreamType matches the project's rng.Stream — by name, plus the
// package-path suffix check so both the real internal/rng and the fixture
// stub qualify, while unrelated Stream types elsewhere would still match
// only if they also live in a package ending in internal/rng or declare
// the project's draw surface. Name-based matching is deliberate: the
// fixture stub cannot import the real package.
func isStreamType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	if named.Obj().Name() != "Stream" {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pathHasSuffix(pkg.Path(), "internal/rng") || strings.HasSuffix(pkg.Path(), "detorder")
}
