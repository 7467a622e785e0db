//go:build !amd64 || purego

package mat

// invTransposeVec leaves the phase-one scratch as it is in a portable
// build, where the product phase runs invProductRows.
func invTransposeVec(wt *Dense) bool { return false }

// invProductVec is never called in a portable build: invTransposeVec
// reports false there.
func invProductVec(inv, lt *Dense, lo, hi int) {
	panic("mat: the AVX2 inverse product called in a portable build")
}
