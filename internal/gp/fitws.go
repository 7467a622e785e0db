package gp

import (
	"sync"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// fitWorkspace is one hyperparameter start's private state: the kernel
// and noise every marginal-likelihood evaluation sets from the point it
// is asked about, and the evaluation's scratch. Each start of a fit owns
// one for as long as its search runs, so there is one workspace per
// running start and no evaluation ever sees another start's state.
// Workspaces are recycled through fitPool across starts and fits,
// resizing only when the fitted sizes change, which keeps a warm
// evaluation at 0 allocations (TestFitObjectiveAllocs).
//
// The embedded Cholesky is reused via Refactorize, so the factor's packed
// n²/2 storage is allocated once per size change rather than once per
// objective call.
type fitWorkspace struct {
	n, d int

	kern     *kernel.Matern52 // set from each evaluation's parameters
	cfgNoise float64          // Config.Noise: > 0 fixes the noise
	noise    float64          // noise variance of the current evaluation

	gram  *mat.Dense   // n×n: K + σ²I below the diagonal, dφ/d(r²) above (gramInto)
	chol  mat.Cholesky // refactorized in place each evaluation
	alpha []float64    // n: (K+σ²I)⁻¹ y
	inv   *mat.Dense   // n×n: K⁻¹, then A = ααᵀ − K⁻¹ in the lower triangle
	wt    *mat.Dense   // n×n: L⁻ᵀ scratch for InverseInto
	grad  []float64    // np: LML gradient accumulator
	kg    []float64    // nk: per-pair kernel-gradient scratch (serial path)

	// The last value pass (lmlValue): its LML and params, and whether it
	// succeeded. While valueOK holds, gram, chol, alpha, kern and noise are
	// that pass's, so a gradient request at exactly valueP needs only the
	// gradient half. ensure clears valueOK: a workspace taken for a new
	// start may meet other data at the same params.
	lml     float64
	valueP  []float64 // np
	valueOK bool

	// Banded-gradient partials for the parallel trace loop: band b
	// accumulates its kernel-gradient partial into the nk floats at
	// bandGrad[b·bandStride(nk):] using the nk floats at
	// bandKg[b·bandStride(nk):] as its private per-pair scratch, and the
	// partials are reduced in fixed band order after the join.
	bandGrad []float64
	bandKg   []float64
}

// bandStride is the distance between two bands' slots in bandGrad and
// bandKg: nk rounded up to a 64-byte cache line plus one more line, so
// bands running at once never write the same line. The trace updates
// its slots once per pair, so slots that shared a line would bounce it
// between cores on every pair.
func bandStride(nk int) int { return (nk+7)/8*8 + 8 }

// fitPool recycles fit workspaces across starts and fits. Workspaces are
// size-adapted on acquisition (ensure), so consecutive fits at the same
// FitSubsetMax-scale n — the steady state of a BO loop — reuse all O(n²)
// buffers.
var fitPool = sync.Pool{New: func() any { return new(fitWorkspace) }}

// ensure resizes the workspace for a fit over n points in d dimensions
// with the configured noise cfgNoise (> 0 fixes it; otherwise the log
// noise is the last packed parameter). Buffer contents are unspecified
// afterwards; every consumer overwrites before reading (the kernel is set
// from each evaluation's parameters, and InverseInto and the gradient
// accumulators are written before use by contract).
func (ws *fitWorkspace) ensure(n, d int, cfgNoise float64) {
	if ws.kern == nil || ws.d != d {
		ws.kern = kernel.NewMatern52(d)
	}
	ws.cfgNoise = cfgNoise
	nk := 1 + d
	np := nk
	if cfgNoise <= 0 {
		np++
	}
	nb := (n + lmlGradBand - 1) / lmlGradBand
	if ws.gram == nil || ws.n != n {
		ws.gram = mat.NewDense(n, n, nil)
		ws.inv = mat.NewDense(n, n, nil)
		ws.wt = mat.NewDense(n, n, nil)
		ws.alpha = make([]float64, n)
	}
	if len(ws.grad) != np {
		ws.grad = make([]float64, np)
		ws.valueP = make([]float64, np)
	}
	ws.valueOK = false
	if len(ws.kg) != nk {
		ws.kg = make([]float64, nk)
	}
	if len(ws.bandGrad) != nb*bandStride(nk) {
		ws.bandGrad = make([]float64, nb*bandStride(nk))
		ws.bandKg = make([]float64, nb*bandStride(nk))
	}
	ws.n, ws.d = n, d
}
