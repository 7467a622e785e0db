package kernel

import (
	"testing"

	"repro/internal/rng"
)

// The EvalRowFill pair measures the batched k★ fill at a size past the
// parallel threshold: Serial pins the single-goroutine baseline, Auto
// takes the parallel.ForEachBand split (which runs the same inline loop
// when the budget has no helper, as at GOMAXPROCS=1 — the two are
// expected to track each other on one core and diverge on many).

const benchFillN = 8192

func benchFillFixture(b *testing.B) (*Matern52, []float64, []float64, []float64) {
	b.Helper()
	const d = 12
	stream := rng.New(3, 17)
	_, flat := rowBlock(stream, benchFillN, d)
	x := randPoint(stream, d)
	return NewMatern52(d), x, flat, make([]float64, benchFillN)
}

func BenchmarkEvalRowFillSerial8192(b *testing.B) {
	k, x, flat, dst := benchFillFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.EvalRow(dst, x, flat)
	}
}

func BenchmarkEvalRowFillAuto8192(b *testing.B) {
	k, x, flat, dst := benchFillFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalRowAuto(k, dst, x, flat)
	}
}

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
