// Package kernel implements the ARD Matérn-5/2 covariance kernel, the
// paper's choice and the one kernel the Gaussian process runs. It exposes
// analytic derivatives with respect to the log-hyperparameters (for
// marginal-likelihood fitting) and with respect to the input point (for
// gradient-based acquisition optimization).
package kernel

import (
	"fmt"
	"math"
)

// Matern52 is the stationary ARD Matérn-5/2 kernel
//
//	k(x,y) = σ²·φ(r²),  r² = Σ((x_i−y_i)/ℓ_i)²,  φ(r²) = (1 + t + t²/3)·e^{−t},  t = √(5r²),
//
// parameterized by a log-output-scale and per-dimension log-lengthscales,
// always handled on the log scale and packed as [log σ², log ℓ_1, …, log ℓ_d].
// Derived quantities (variance, inverse lengthscales) are cached on
// SetParams: kernel evaluation is the innermost loop of GP fitting and
// must not call math.Exp per pair.
type Matern52 struct {
	dim         int
	logVariance float64   // log σ²
	logLength   []float64 // log ℓ_i

	variance float64   // σ²
	invLen   []float64 // 1/ℓ_i
	inv2Len  []float64 // 1/ℓ_i²
}

// NewMatern52 returns a unit-variance, unit-lengthscale Matérn-5/2 kernel.
func NewMatern52(dim int) *Matern52 {
	if dim < 1 {
		panic(fmt.Sprintf("kernel: dimension %d < 1", dim))
	}
	k := &Matern52{
		dim:       dim,
		logLength: make([]float64, dim),
		invLen:    make([]float64, dim),
		inv2Len:   make([]float64, dim),
	}
	k.refresh()
	return k
}

// phi is the radial part φ(r²), with φ(0) = 1.
func phi(r2 float64) float64 {
	t := math.Sqrt(5 * r2)
	return (1 + t + t*t/3) * math.Exp(-t)
}

// phiDeriv returns φ(r²) and dφ/d(r²) = −(5/6)(1+t)e^{−t}, smooth
// through r = 0.
func phiDeriv(r2 float64) (float64, float64) {
	t := math.Sqrt(5 * r2)
	e := math.Exp(-t)
	return (1 + t + t*t/3) * e, -(5.0 / 6.0) * (1 + t) * e
}

// refresh recomputes the cached derived parameters.
func (k *Matern52) refresh() {
	k.variance = math.Exp(k.logVariance)
	for i, ll := range k.logLength {
		inv := math.Exp(-ll)
		k.invLen[i] = inv
		k.inv2Len[i] = inv * inv
	}
}

// Dim returns the input dimension d.
func (k *Matern52) Dim() int { return k.dim }

// Variance returns the output scale σ², which is also k(x, x).
func (k *Matern52) Variance() float64 { return k.variance }

// NumParams returns the number of hyperparameters (1 + d).
func (k *Matern52) NumParams() int { return 1 + k.dim }

// Params appends the packed log-hyperparameters to dst.
func (k *Matern52) Params(dst []float64) []float64 {
	dst = append(dst, k.logVariance)
	return append(dst, k.logLength...)
}

// SetParams unpacks log-hyperparameters from p.
func (k *Matern52) SetParams(p []float64) {
	if len(p) != 1+k.dim {
		panic(fmt.Sprintf("kernel: %d params for dim %d", len(p), k.dim))
	}
	k.logVariance = p[0]
	copy(k.logLength, p[1:])
	k.refresh()
}

// Lengthscales returns the linear-scale ARD lengthscales ℓ_i.
func (k *Matern52) Lengthscales() []float64 {
	out := make([]float64, k.dim)
	for i, ll := range k.logLength {
		out[i] = math.Exp(ll)
	}
	return out
}

func (k *Matern52) r2(x, y []float64) float64 {
	if len(x) != k.dim || len(y) != k.dim {
		panic(fmt.Sprintf("kernel: point dims %d,%d != %d", len(x), len(y), k.dim))
	}
	var s float64
	for i := 0; i < k.dim; i++ {
		d := (x[i] - y[i]) * k.invLen[i]
		s += d * d
	}
	return s
}

// Eval returns k(x, y).
func (k *Matern52) Eval(x, y []float64) float64 {
	return k.variance * phi(k.r2(x, y))
}

// EvalWithGrad returns k(x, y) and writes ∂k/∂θ_j for each
// log-hyperparameter θ_j into grad, which must have length NumParams().
func (k *Matern52) EvalWithGrad(x, y []float64, grad []float64) float64 {
	if len(grad) != k.NumParams() {
		panic(fmt.Sprintf("kernel: grad length %d != %d", len(grad), k.NumParams()))
	}
	p, dphi := phiDeriv(k.r2(x, y))
	kv := k.variance * p
	k.HyperGrad(grad, x, y, kv, dphi)
	return kv
}

// HyperGrad writes ∂k(x, y)/∂θ_j for each log-hyperparameter into grad
// (length NumParams()) from the pair's kernel value kv and radial
// derivative dphi = dφ/d(r²), as EvalRowRadial reports them. It is the
// second half of EvalWithGrad, so a caller that kept a pair's kv and dphi
// from a row fill gets EvalWithGrad's bits without recomputing r², the
// root and the exponential.
func (k *Matern52) HyperGrad(grad, x, y []float64, kv, dphi float64) {
	grad[0] = kv // ∂k/∂ log σ² = k
	vd := -2 * k.variance * dphi
	for i := 0; i < k.dim; i++ {
		d := x[i] - y[i]
		// ∂r²/∂ log ℓ_i = −2 d² / ℓ_i²
		grad[1+i] = vd * d * d * k.inv2Len[i]
	}
}

// checkRowBlock validates the batched-evaluation operands.
func (k *Matern52) checkRowBlock(n int, x, xs []float64) {
	if len(x) != k.dim {
		panic(fmt.Sprintf("kernel: point dim %d != %d", len(x), k.dim))
	}
	if len(xs) != n*k.dim {
		panic(fmt.Sprintf("kernel: row block length %d != %d rows × dim %d", len(xs), n, k.dim))
	}
}

// EvalRow writes k(x, X_i) into dst[i] for every row X_i of the row-major
// block xs, which holds len(dst) contiguous rows of Dim() values each. It
// is the batched form of Eval used to fill the k★ cross-covariance vector
// in one pass over the training block, and produces bitwise-identical
// values to per-row Eval calls.
func (k *Matern52) EvalRow(dst []float64, x []float64, xs []float64) {
	k.checkRowBlock(len(dst), x, xs)
	if k.vectorRows(dst, nil, x, xs) {
		return
	}
	d := k.dim
	x = x[:d]
	inv := k.invLen[:d]
	v := k.variance
	for i := range dst {
		row := xs[i*d : i*d+d : i*d+d]
		var s float64
		for j, rv := range row {
			diff := (x[j] - rv) * inv[j]
			s += diff * diff
		}
		dst[i] = v * phi(s)
	}
}

// EvalRowRadial is EvalRow that also writes each row's radial derivative
// dφ/d(r²) at r² = r²(x, X_i) into dphi[i]; dphi must have length
// len(dst). The values in dst are EvalRow's bits, and (dst[i], dphi[i])
// are the kv and dphi that HyperGrad takes, so a marginal-likelihood
// gradient built from them equals one built from per-pair EvalWithGrad
// bit for bit.
func (k *Matern52) EvalRowRadial(dst, dphi []float64, x []float64, xs []float64) {
	k.checkRowBlock(len(dst), x, xs)
	if len(dphi) != len(dst) {
		panic(fmt.Sprintf("kernel: dphi length %d != %d", len(dphi), len(dst)))
	}
	if k.vectorRows(dst, dphi, x, xs) {
		return
	}
	d := k.dim
	x = x[:d]
	inv := k.invLen[:d]
	v := k.variance
	dphi = dphi[:len(dst)]
	for i := range dst {
		row := xs[i*d : i*d+d : i*d+d]
		var s float64
		for j, rv := range row {
			diff := (x[j] - rv) * inv[j]
			s += diff * diff
		}
		p, dp := phiDeriv(s)
		dst[i] = v * p
		dphi[i] = dp
	}
}

// GradXRows writes ∂k(x, X_i)/∂x into gradx[i*Dim() : (i+1)*Dim()] for
// each of the len(dphi) rows of the block xs, from the row's radial
// derivative dphi[i] = dφ/d(r²) as EvalRowRadial reports it. Each row is
// GradX's expression on that dφ, so a fill by EvalRowRadial followed by
// GradXRows matches per-row Eval and GradX bit for bit without
// recomputing r², the root or the exponential. gradx must have length
// len(dphi)·Dim().
func (k *Matern52) GradXRows(gradx, dphi []float64, x []float64, xs []float64) {
	k.checkRowBlock(len(dphi), x, xs)
	d := k.dim
	if len(gradx) != len(dphi)*d {
		panic(fmt.Sprintf("kernel: gradx length %d != %d", len(gradx), len(dphi)*d))
	}
	x = x[:d]
	inv2 := k.inv2Len[:d]
	v := k.variance
	for i, dp := range dphi {
		row := xs[i*d : i*d+d : i*d+d]
		vd := 2 * v * dp
		grow := gradx[i*d : i*d+d]
		grow = grow[:len(row)]
		for j, rv := range row {
			grow[j] = vd * (x[j] - rv) * inv2[j]
		}
	}
}

// GradX writes ∂k(x,y)/∂x into grad, which must have length Dim().
func (k *Matern52) GradX(x, y []float64, grad []float64) {
	if len(grad) != k.dim {
		panic(fmt.Sprintf("kernel: gradX length %d != %d", len(grad), k.dim))
	}
	r2 := k.r2(x, y)
	_, dphi := phiDeriv(r2)
	vd := 2 * k.variance * dphi
	for i := 0; i < k.dim; i++ {
		// ∂r²/∂x_i = 2(x_i − y_i)/ℓ_i²
		grad[i] = vd * (x[i] - y[i]) * k.inv2Len[i]
	}
}
