package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := New(42, 1)
	b := New(42, 1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical (seed, stream) pairs diverged")
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := New(42, 1)
	b := New(42, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different indices agree on %d/100 samples", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7, 0)
	c1 := parent.Split(1)
	parent2 := New(7, 0)
	c2 := parent2.Split(1)
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("split streams are not reproducible")
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(1, 1)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}

func TestUniformVec(t *testing.T) {
	s := New(1, 2)
	lo := []float64{0, -1, 10}
	hi := []float64{1, 1, 20}
	for i := 0; i < 100; i++ {
		x := s.UniformVec(lo, hi)
		for j := range x {
			if x[j] < lo[j] || x[j] >= hi[j] {
				t.Fatalf("component %d out of range: %v", j, x[j])
			}
		}
	}
}

func TestNormVecMoments(t *testing.T) {
	s := New(3, 3)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestNormICDFRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-6} {
		x := NormICDF(p)
		back := NormCDF(x)
		if math.Abs(back-p) > 1e-12*(1+1/p) {
			t.Fatalf("round trip p=%v: got %v", p, back)
		}
	}
}

func TestNormICDFTails(t *testing.T) {
	if !math.IsInf(NormICDF(0), -1) || !math.IsInf(NormICDF(1), 1) {
		t.Fatal("ICDF tails wrong")
	}
	if NormICDF(0.5) != 0 {
		t.Fatalf("ICDF(0.5) = %v", NormICDF(0.5))
	}
}

func TestNormPDFCDFConsistency(t *testing.T) {
	// d/dx CDF ≈ PDF via central differences.
	for _, x := range []float64{-3, -1, 0, 0.5, 2} {
		h := 1e-6
		num := (NormCDF(x+h) - NormCDF(x-h)) / (2 * h)
		if math.Abs(num-NormPDF(x)) > 1e-8 {
			t.Fatalf("CDF'(%v) = %v != PDF %v", x, num, NormPDF(x))
		}
	}
}

// Property: NormICDF is monotone increasing.
func TestNormICDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa == 0 || pb == 0 || pa == pb {
			return true
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		return NormICDF(pa) < NormICDF(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
