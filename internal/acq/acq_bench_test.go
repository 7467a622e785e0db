package acq

import (
	"math"
	"testing"

	"repro/internal/gp"
	"repro/internal/rng"
)

func benchGP(b *testing.B, n int) *gp.GP {
	b.Helper()
	lo := make([]float64, 12)
	hi := make([]float64, 12)
	for i := range hi {
		hi[i] = 1
	}
	stream := rng.New(1, 1)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = stream.UniformVec(lo, hi)
		var s float64
		for _, v := range X[i] {
			s += v * v
		}
		y[i] = s + math.Sin(5*X[i][0])
	}
	g, err := gp.Fit(X, y, gp.Config{Lo: lo, Hi: hi, Seed: 1, Restarts: 1, MaxIter: 10, FitSubsetMax: 64})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkEIGrad256(b *testing.B) {
	g := benchGP(b, 256)
	e := &EI{Best: 1, Minimize: true}
	x := rng.New(2, 2).NormVec(12)
	for i := range x {
		x[i] = math.Abs(x[i]) / 3
	}
	grad := make([]float64, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvalWithGrad(g, x, grad)
	}
}

// BenchmarkEIValueOnly256 is EIGrad256's call with a nil gradient: the
// value-only evaluation every L-BFGS line-search trial makes.
func BenchmarkEIValueOnly256(b *testing.B) {
	g := benchGP(b, 256)
	e := &EI{Best: 1, Minimize: true}
	x := rng.New(2, 2).NormVec(12)
	for i := range x {
		x[i] = math.Abs(x[i]) / 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvalWithGrad(g, x, nil)
	}
}

// BenchmarkEIAcceptedStep256 is the pair L-BFGS issues at an accepted
// step: the value-only trial, then the gradient request at the same point,
// which reuses the trial's value half.
func BenchmarkEIAcceptedStep256(b *testing.B) {
	g := benchGP(b, 256)
	e := &EI{Best: 1, Minimize: true}
	x := rng.New(2, 2).NormVec(12)
	for i := range x {
		x[i] = math.Abs(x[i]) / 3
	}
	grad := make([]float64, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvalWithGrad(g, x, nil)
		e.EvalWithGrad(g, x, grad)
	}
}

func BenchmarkQEIBatch4(b *testing.B) {
	g := benchGP(b, 256)
	q := NewQEI(4, 64, 1, true, rng.New(3, 3))
	stream := rng.New(4, 4)
	lo := make([]float64, 12)
	hi := make([]float64, 12)
	for i := range hi {
		hi[i] = 1
	}
	batch := make([][]float64, 4)
	for i := range batch {
		batch[i] = stream.UniformVec(lo, hi)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.EvalBatch(g, batch)
	}
}

func BenchmarkQEIBatch16(b *testing.B) {
	g := benchGP(b, 256)
	q := NewQEI(16, 64, 1, true, rng.New(3, 3))
	stream := rng.New(4, 4)
	lo := make([]float64, 12)
	hi := make([]float64, 12)
	for i := range hi {
		hi[i] = 1
	}
	batch := make([][]float64, 16)
	for i := range batch {
		batch[i] = stream.UniformVec(lo, hi)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.EvalBatch(g, batch)
	}
}
