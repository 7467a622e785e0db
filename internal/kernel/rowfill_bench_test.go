package kernel

import (
	"testing"

	"repro/internal/rng"
)

// benchEvalRowRadial times the k★ fill of one posterior value pass over
// n training rows of d dimensions.
func benchEvalRowRadial(b *testing.B, n, d int) {
	stream := rng.New(4, uint64(n))
	_, flat := rowBlock(stream, n, d)
	x := randPoint(stream, d)
	k := NewMatern52(d)
	dst, dphi := make([]float64, n), make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.EvalRowRadial(dst, dphi, x, flat)
	}
}

// BenchmarkEvalRowRadial184 is the fill at a paper day's last fit: 184
// training rows of d = 12.
func BenchmarkEvalRowRadial184(b *testing.B) { benchEvalRowRadial(b, 184, 12) }

// BenchmarkEvalRowRadial96D24 is the fill at a fleet cell's size: 96
// rows of the horizon-2 cell's d = 24.
func BenchmarkEvalRowRadial96D24(b *testing.B) { benchEvalRowRadial(b, 96, 24) }
