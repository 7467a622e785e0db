package kernel

// HyperGradSum adds (0.5·scale·w[j])·∂k(x, X_j)/∂θ for each of the
// len(kv) rows X_j of xs into part (length NumParams()), from each pair's
// kernel value kv[j] and radial derivative dphi[j] as EvalRowRadial
// reports them: the marginal-likelihood trace over one row of pairs. Each
// pair's gradient is HyperGrad's, and every entry of part sums its pairs
// in increasing j, so the bits are those of per-pair EvalWithGrad calls
// accumulated in that order. The AVX2 body runs where hyperGradVec takes
// it; otherwise hyperGradSumGo, which uses kg (length NumParams()) as
// scratch. dphi and w are at least len(kv) long.
func (k *Matern52) HyperGradSum(part, kg, x, xs, kv, dphi, w []float64, scale float64) {
	if !k.hyperGradVec(part, x, xs, kv, dphi, w, scale) {
		k.hyperGradSumGo(part, kg, x, xs, kv, dphi, w, scale)
	}
}

// hyperGradSumGo is HyperGradSum's Go loop and its AVX2 body's
// bit-for-bit oracle.
func (k *Matern52) hyperGradSumGo(part, kg, x, xs, kv, dphi, w []float64, scale float64) {
	d := k.dim
	kg = kg[:len(part)]
	for j, v := range kv {
		k.HyperGrad(kg, x, xs[j*d:j*d+d], v, dphi[j])
		c := 0.5 * scale * w[j]
		for t := range part {
			part[t] += c * kg[t]
		}
	}
}

// GradXSum writes Σ_i alpha[i]·∂k(x, X_i)/∂x into dMean and
// Σ_i (−2·w[i])·∂k(x, X_i)/∂x into dVar (length Dim()), over the
// len(dphi) rows X_i of xs with radial derivatives dphi[i] as
// EvalRowRadial reports them: the posterior mean's and variance's
// gradients. Each row's gradient is GradXRows's, and both sums run from
// zero in increasing i. The AVX2 body runs where gradXVec takes it,
// without storing the rows' gradients; otherwise gradXSumGo, which
// writes them into kg (length len(dphi)·Dim()). alpha and w are at least
// len(dphi) long.
func (k *Matern52) GradXSum(dMean, dVar, kg, x, xs, dphi, alpha, w []float64) {
	if !k.gradXVec(dMean, dVar, x, xs, dphi, alpha, w) {
		k.gradXSumGo(dMean, dVar, kg, x, xs, dphi, alpha, w)
	}
}

// gradXSumGo is GradXSum's Go loop and its AVX2 body's bit-for-bit
// oracle.
func (k *Matern52) gradXSumGo(dMean, dVar, kg, x, xs, dphi, alpha, w []float64) {
	d := k.dim
	k.GradXRows(kg, dphi, x, xs)
	dMean, dVar = dMean[:d], dVar[:d]
	for j := range dMean {
		dMean[j] = 0
		dVar[j] = 0
	}
	for i := range dphi {
		g := kg[i*d : i*d+d]
		ai, wi := alpha[i], w[i]
		for j := range dMean {
			dMean[j] += ai * g[j]
			dVar[j] += -2 * wi * g[j] // ∂(k**−k*ᵀK⁻¹k*)/∂u; k** constant for stationary kernels
		}
	}
}
