//go:build amd64 && !purego

package simd

import (
	"os"
	"strings"
	"testing"
)

// TestProbeFindsHostAVX2FMA makes a silent fallback fail loudly: where the
// Linux kernel reports AVX, AVX2 and FMA in /proc/cpuinfo (it clears AVX
// when it does not save the YMM state), the probe must select the vector
// bodies.
func TestProbeFindsHostAVX2FMA(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare against: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(val) {
				flags[f] = true
			}
			break
		}
	}
	if !flags["avx"] || !flags["avx2"] || !flags["fma"] {
		t.Skip("the host reports no AVX2+FMA")
	}
	if !AVX2FMA() {
		t.Fatal("the host reports AVX, AVX2 and FMA, but the probe selected the generic path")
	}
}
