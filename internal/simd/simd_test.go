package simd

import "testing"

// TestVerdictNamesProbe pins Verdict to the probe and logs it, so a test
// run records which path the vector bodies take.
func TestVerdictNamesProbe(t *testing.T) {
	want := "generic"
	if AVX2FMA() {
		want = "avx2+fma"
	}
	if got := Verdict(); got != want {
		t.Fatalf("Verdict() = %q, want %q", got, want)
	}
	t.Logf("verdict: %s", Verdict())
}
