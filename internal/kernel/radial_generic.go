//go:build !amd64 || purego

package kernel

// vectorRows leaves every row fill to EvalRow's and EvalRowRadial's
// scalar loops in a portable build.
func (k *Matern52) vectorRows(dst, dphi, x, xs []float64) bool { return false }
