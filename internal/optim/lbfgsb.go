// Package optim provides the optimizers used inside the BO stack: a
// bound-constrained limited-memory BFGS (the role SciPy's L-BFGS-B plays in
// BoTorch's optimize_acqf), a multi-start driver, and the classical
// population baselines the paper's introduction cites (random search, a
// real-coded genetic algorithm and particle swarm optimization). All
// optimizers minimize; callers maximize by negating their objective.
package optim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
)

// Objective evaluates f at x.
type Objective func(x []float64) float64

// GradObjective evaluates f at x and writes ∇f into grad (same length as
// x). A nil grad asks for the value only: the objective then returns the
// same bits a call with a gradient buffer would return at x and skips the
// gradient work. LBFGSB.Minimize evaluates its line-search trials that
// way and asks for the gradient only at the point it accepts.
type GradObjective func(x, grad []float64) float64

// Result reports the outcome of a local or global optimization run.
type Result struct {
	X          []float64 // best point found
	F          float64   // objective value at X
	Iters      int       // iterations performed
	Evals      int       // objective evaluations performed
	Converged  bool      // true if a convergence tolerance was met
	StopReason string    // human-readable stop cause
}

// Fixed L-BFGS-B settings.
const (
	lbfgsMemory  = 8     // curvature pairs kept
	lbfgsFTol    = 1e-10 // stop when the relative objective decrease falls below it
	lbfgsArmijoC = 1e-4  // sufficient-decrease constant
)

// LBFGSB is a bound-constrained limited-memory BFGS minimizer using gradient
// projection and Armijo backtracking along the projected ray. It is a
// practical simplification of Byrd–Lu–Nocedal L-BFGS-B that retains the box
// handling BO acquisition optimization needs.
type LBFGSB struct {
	// MaxIter bounds the number of outer iterations (default 100).
	MaxIter int
	// GTol stops when the projected gradient infinity-norm falls below it
	// (default 1e-6).
	GTol float64
	// MaxLineSearch bounds backtracking steps per iteration (default 30).
	MaxLineSearch int
	// MaxEvals bounds total objective evaluations (0 = unbounded). The
	// optimizer stops after the iteration that crosses the budget. The
	// gradient request at an accepted trial point counts neither here nor
	// in Result.Evals: the trial itself was the evaluation.
	MaxEvals int
}

func (o *LBFGSB) defaults() LBFGSB {
	d := *o
	if d.MaxIter <= 0 {
		d.MaxIter = 100
	}
	if d.GTol <= 0 {
		d.GTol = 1e-6
	}
	if d.MaxLineSearch <= 0 {
		d.MaxLineSearch = 30
	}
	return d
}

// clampToBox projects x onto [lo, hi] in place.
func clampToBox(x, lo, hi []float64) {
	for i := range x {
		if x[i] < lo[i] {
			x[i] = lo[i]
		} else if x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}

// projGradNorm returns the infinity norm of the projected gradient: gradient
// components pushing outward at an active bound do not count.
func projGradNorm(x, g, lo, hi []float64) float64 {
	var n float64
	for i := range x {
		gi := g[i]
		if x[i] <= lo[i] && gi > 0 {
			gi = 0
		}
		if x[i] >= hi[i] && gi < 0 {
			gi = 0
		}
		if a := math.Abs(gi); a > n {
			n = a
		}
	}
	return n
}

// lbfgsbWorkspace carries every buffer one Minimize call needs: the
// iterate, gradient and line-search vectors plus the curvature-pair ring
// (lbfgsMemory vectors of s, y and their rho). Minimize is the inner loop of
// every acquisition maximization, so the buffers are pooled and recycled
// instead of reallocated per start.
type lbfgsbWorkspace struct {
	x, g, dir, xNew, gNew []float64
	sTmp, yTmp            []float64
	alpha, rho            []float64
	s, y                  [][]float64 // ring slots, each of length n
}

var lbfgsbPool = sync.Pool{New: func() any { return new(lbfgsbWorkspace) }}

// grab resizes the workspace for an n-dimensional problem. Buffers grow
// monotonically and are reused across Minimize calls through the pool.
func (w *lbfgsbWorkspace) grab(n int) {
	const mem = lbfgsMemory
	if cap(w.x) < n {
		w.x = make([]float64, n)
		w.g = make([]float64, n)
		w.dir = make([]float64, n)
		w.xNew = make([]float64, n)
		w.gNew = make([]float64, n)
		w.sTmp = make([]float64, n)
		w.yTmp = make([]float64, n)
	}
	w.x, w.g, w.dir = w.x[:n], w.g[:n], w.dir[:n]
	w.xNew, w.gNew = w.xNew[:n], w.gNew[:n]
	w.sTmp, w.yTmp = w.sTmp[:n], w.yTmp[:n]
	if cap(w.alpha) < mem {
		w.alpha = make([]float64, mem)
		w.rho = make([]float64, mem)
	}
	w.alpha, w.rho = w.alpha[:mem], w.rho[:mem]
	if len(w.s) < mem || (len(w.s) > 0 && cap(w.s[0]) < n) {
		w.s = make([][]float64, mem)
		w.y = make([][]float64, mem)
		for i := range w.s {
			w.s[i] = make([]float64, n)
			w.y[i] = make([]float64, n)
		}
	}
	for i := range w.s {
		w.s[i] = w.s[i][:n]
		w.y[i] = w.y[i][:n]
	}
}

// Minimize runs bound-constrained L-BFGS from x0. The bounds must satisfy
// lo_i <= hi_i; x0 is clamped into the box before the first evaluation.
//
// Only the start point and accepted steps need a gradient, so every
// line-search trial calls f with a nil gradient and the accepted trial is
// asked once more, for its gradient. Most trials are rejected, and a
// rejected trial's gradient was never read, so the search takes the same
// steps while paying for far fewer gradients.
func (o *LBFGSB) Minimize(f GradObjective, x0, lo, hi []float64) Result {
	cfg := o.defaults()
	n := len(x0)
	if len(lo) != n || len(hi) != n {
		panic(fmt.Sprintf("optim: bounds lengths %d,%d != %d", len(lo), len(hi), n))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("optim: lo[%d]=%v > hi[%d]=%v", i, lo[i], i, hi[i]))
		}
	}

	ws := lbfgsbPool.Get().(*lbfgsbWorkspace)
	ws.grab(n)
	x := ws.x
	copy(x, x0)
	clampToBox(x, lo, hi)
	g := ws.g
	fx := f(x, g)
	evals := 1

	// Curvature pairs live in a ring of preallocated slots: logical pair i
	// (0 = oldest) sits in slot (start+i) mod lbfgsMemory.
	start, count := 0, 0

	dir := ws.dir
	xNew := ws.xNew
	gNew := ws.gNew
	alphaBuf := ws.alpha

	res := Result{X: x, F: fx, Evals: evals}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if cfg.MaxEvals > 0 && evals >= cfg.MaxEvals {
			res.StopReason = "evaluation budget exhausted"
			break
		}
		res.Iters = iter + 1
		if projGradNorm(x, g, lo, hi) < cfg.GTol {
			res.Converged = true
			res.StopReason = "projected gradient below tolerance"
			break
		}

		// Two-loop recursion for d = −H·g, masking components at active
		// bounds so the direction stays feasible.
		copy(dir, g)
		for i := range dir {
			if (x[i] <= lo[i] && g[i] > 0) || (x[i] >= hi[i] && g[i] < 0) {
				dir[i] = 0
			}
		}
		for i := count - 1; i >= 0; i-- {
			slot := (start + i) % lbfgsMemory
			alphaBuf[i] = ws.rho[slot] * mat.Dot(ws.s[slot], dir)
			mat.AxpyVec(-alphaBuf[i], ws.y[slot], dir)
		}
		if count > 0 {
			last := (start + count - 1) % lbfgsMemory
			gamma := mat.Dot(ws.s[last], ws.y[last]) / mat.Dot(ws.y[last], ws.y[last])
			if gamma > 0 && !math.IsInf(gamma, 0) && !math.IsNaN(gamma) {
				mat.ScaleVec(gamma, dir)
			}
		}
		for i := 0; i < count; i++ {
			slot := (start + i) % lbfgsMemory
			beta := ws.rho[slot] * mat.Dot(ws.y[slot], dir)
			mat.AxpyVec(alphaBuf[i]-beta, ws.s[slot], dir)
		}
		mat.ScaleVec(-1, dir) // descent direction

		// If the two-loop direction is not a descent direction (can happen
		// with box masking), fall back to steepest descent.
		if mat.Dot(dir, g) >= 0 {
			for i := range dir {
				dir[i] = -g[i]
				if (x[i] <= lo[i] && g[i] > 0) || (x[i] >= hi[i] && g[i] < 0) {
					dir[i] = 0
				}
			}
		}

		// Backtracking Armijo line search along the projected path. Before
		// any curvature information exists the direction is raw steepest
		// descent, so scale the first trial step to a unit move.
		step := 1.0
		if count == 0 {
			if dn := mat.Norm2(dir); dn > 1 {
				step = 1 / dn
			}
		}
		var fNew float64
		accepted := false
		for ls := 0; ls < cfg.MaxLineSearch; ls++ {
			for i := range xNew {
				xNew[i] = x[i] + step*dir[i]
			}
			clampToBox(xNew, lo, hi)
			fNew = f(xNew, nil)
			evals++
			// Sufficient decrease relative to the actual (projected) move.
			var gdx float64
			for i := range xNew {
				gdx += g[i] * (xNew[i] - x[i])
			}
			if fNew <= fx+lbfgsArmijoC*gdx && gdx < 0 {
				accepted = true
				break
			}
			if fNew < fx && gdx >= 0 {
				// Projection killed the model decrease but we still improved.
				accepted = true
				break
			}
			step *= 0.5
		}
		res.Evals = evals
		if !accepted {
			res.StopReason = "line search failed"
			break
		}
		// The accepted trial's gradient; its value has fNew's bits.
		f(xNew, gNew)

		// Curvature update. The candidate pair is built in spare buffers
		// first: if the curvature test fails, no ring slot (possibly still
		// live) may be touched.
		s := ws.sTmp
		yv := ws.yTmp
		for i := range s {
			s[i] = xNew[i] - x[i]
			yv[i] = gNew[i] - g[i]
		}
		sy := mat.Dot(s, yv)
		if sy > 1e-10*mat.Norm2(s)*mat.Norm2(yv) {
			var slot int
			if count == lbfgsMemory {
				// Ring full: the oldest slot is dropped and becomes the newest.
				slot = start
				start = (start + 1) % lbfgsMemory
			} else {
				slot = (start + count) % lbfgsMemory
				count++
			}
			copy(ws.s[slot], s)
			copy(ws.y[slot], yv)
			ws.rho[slot] = 1 / sy
		}

		fPrev := fx
		copy(x, xNew)
		copy(g, gNew)
		fx = fNew
		res.X, res.F = x, fx
		if math.Abs(fPrev-fx) <= lbfgsFTol*(math.Abs(fx)+math.Abs(fPrev)+1e-12) {
			res.Converged = true
			res.StopReason = "objective decrease below tolerance"
			break
		}
	}
	if res.StopReason == "" {
		res.StopReason = "iteration limit"
	}
	res.X = mat.CloneVec(x)
	res.F = fx
	lbfgsbPool.Put(ws)
	return res
}

var numGradPool = sync.Pool{New: func() any { return new([]float64) }}

// NumGrad wraps a plain objective into a GradObjective using central finite
// differences with step h (default 1e-6 when h <= 0). It is the fallback
// for objectives without analytic gradients, e.g. Monte-Carlo q-EI. A
// value-only call (nil grad) costs one evaluation of f instead of
// 1 + 2·len(x). The perturbed-point scratch is pooled, so the returned closure is
// allocation-free in steady state and safe for concurrent callers.
func NumGrad(f Objective, h float64) GradObjective {
	if h <= 0 {
		h = 1e-6
	}
	return func(x, grad []float64) float64 {
		fx := f(x)
		if grad == nil {
			return fx
		}
		buf := numGradPool.Get().(*[]float64)
		if cap(*buf) < len(x) {
			*buf = make([]float64, len(x))
		}
		xh := (*buf)[:len(x)]
		copy(xh, x)
		for i := range x {
			xh[i] = x[i] + h
			up := f(xh)
			xh[i] = x[i] - h
			dn := f(xh)
			xh[i] = x[i]
			grad[i] = (up - dn) / (2 * h)
		}
		numGradPool.Put(buf)
		return fx
	}
}
