//go:build amd64 && !purego

package mat

import (
	"testing"

	"repro/internal/simd"
)

// TestSweepVectorEnabled makes a silent fallback fail loudly: where the
// probe finds AVX2 and FMA, the AVX2 body must take the whole
// multiple-of-four prefix of an 11-entry sweep and leave the Go loop's
// bits.
func TestSweepVectorEnabled(t *testing.T) {
	if !simd.AVX2FMA() {
		t.Skip("the probe found no AVX2+FMA")
	}
	const n = 11
	var dst, want [n]float64
	var c [4][n]float64
	for i := range dst {
		dst[i] = float64(i) + 0.1
		for j := range c {
			c[j][i] = float64(j+1) / float64(i+3)
		}
	}
	want = dst
	if got := subMul4Vec(dst[:], c[0][:], c[1][:], c[2][:], c[3][:], 0.7, -1.3, 2.9, 0.11); got != 8 {
		t.Fatalf("the AVX2 body finished %d of %d entries, want 8", got, n)
	}
	subMul4Go(want[:8], c[0][:], c[1][:], c[2][:], c[3][:], 0.7, -1.3, 2.9, 0.11)
	for i := range want {
		if !sameBits(dst[i], want[i]) {
			t.Fatalf("entry %d: AVX2 body %v, Go loop %v", i, dst[i], want[i])
		}
	}
}
