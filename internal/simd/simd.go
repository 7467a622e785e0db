// Package simd holds the one CPU probe behind the vector bodies of the
// linear-algebra sweep (internal/mat) and the Matérn radial pass
// (internal/kernel). Both bodies need AVX2 and FMA on a CPU and an OS that
// saves the YMM registers; where the probe says no, or in a build with
// the purego tag or off amd64, both packages run their portable Go loops,
// which give the same bits. Nothing here is settable: the probe and the
// purego tag are the only selectors.
package simd

// AVX2FMA reports whether the CPU and OS run the AVX2+FMA vector bodies.
// It is false in a purego build and off amd64.
func AVX2FMA() bool { return avx2fma }

// Verdict names the path the probe selected: "avx2+fma" or "generic".
func Verdict() string {
	if avx2fma {
		return "avx2+fma"
	}
	return "generic"
}
