//go:build amd64 && !purego

package mat

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/simd"
)

// TestSweepVectorEnabled makes a silent fallback fail loudly: where the
// probe finds AVX2 and FMA, the AVX2 body must take the whole 11-entry
// sweep, its three-entry tail included, and leave the Go loop's bits.
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
	if !subMul4Vec(dst[:], c[0][:], c[1][:], c[2][:], c[3][:], 0.7, -1.3, 2.9, 0.11) {
		t.Fatal("the AVX2 body declined the sweep")
	}
	subMul4Go(want[:], c[0][:], c[1][:], c[2][:], c[3][:], 0.7, -1.3, 2.9, 0.11)
	for i := range want {
		if !sameBits(dst[i], want[i]) {
			t.Fatalf("entry %d: AVX2 body %v, Go loop %v", i, dst[i], want[i])
		}
	}
}

// TestBackSweepVectorEnabled makes a silent fallback of the back-solve
// sweep fail loudly: where the probe finds AVX2 and FMA, the AVX2 body
// must take the whole seven-entry sweep, its three-entry tail included,
// and leave the Go loop's bits.
func TestBackSweepVectorEnabled(t *testing.T) {
	if !simd.AVX2FMA() {
		t.Skip("the probe found no AVX2+FMA")
	}
	const n, m = 13, 7
	l := make([]float64, packedLen(n))
	for i := range l {
		l[i] = 1 / float64(i+3)
	}
	var y, want [m]float64
	for i := range y {
		y[i] = float64(i) + 0.1
	}
	want = y
	if !backSweepVec(y[:], l, n, 0.7, -1.3, 2.9, 0.11) {
		t.Fatal("the AVX2 body declined the sweep")
	}
	backSweepGo(want[:], l, n, 0.7, -1.3, 2.9, 0.11)
	for i := range want {
		if !sameBits(y[i], want[i]) {
			t.Fatalf("entry %d: AVX2 body %v, Go loop %v", i, y[i], want[i])
		}
	}
}

// TestInverseVectorEnabled makes a silent fallback of the inverse product
// fail loudly: where the probe finds AVX2 and FMA, InverseInto must leave
// its scratch transposed, L⁻¹ in the lower triangle, which only the AVX2
// product's path does, and the product must have the Go loop's bits.
func TestInverseVectorEnabled(t *testing.T) {
	if !simd.AVX2FMA() {
		t.Skip("the probe found no AVX2+FMA")
	}
	const n = 23
	c, err := NewCholesky(randomSPD(rng.New(53, 5), n), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	wt := NewDense(n, n, nil)
	c.invTransposeRows(wt, 0, n)
	want := NewDense(n, n, nil)
	c.invProductRows(want, wt, 0, n)

	scratch := NewDense(n, n, nil)
	got := c.InverseInto(NewDense(n, n, nil), scratch)
	for i := 0; i < n; i++ {
		for k := i; k < n; k++ {
			if !sameBits(scratch.At(k, i), wt.At(i, k)) {
				t.Fatalf("scratch (%d, %d) = %v, want L⁻¹[%d][%d] = %v: the AVX2 product did not run",
					k, i, scratch.At(k, i), k, i, wt.At(i, k))
			}
		}
	}
	if bad := countMismatches(t, got, want, "InverseInto", false); bad != 0 {
		t.Fatalf("%d cells differ from the Go loop", bad)
	}
}
