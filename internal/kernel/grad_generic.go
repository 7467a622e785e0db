//go:build !amd64 || purego

package kernel

// hyperGradVec declines in a portable build, where HyperGradSum runs its
// Go loop.
func (k *Matern52) hyperGradVec(part, x, xs, kv, dphi, w []float64, scale float64) bool {
	return false
}

// gradXVec declines in a portable build, where GradXSum runs its Go loop.
func (k *Matern52) gradXVec(dMean, dVar, x, xs, dphi, alpha, w []float64) bool { return false }
