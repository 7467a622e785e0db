package gp

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// benchData builds an n-point, 12-dimensional training set.
func benchData(n int) ([][]float64, []float64, Config) {
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
	return X, y, Config{Lo: lo, Hi: hi, Seed: 1, Restarts: 1, MaxIter: 15, FitSubsetMax: 128}
}

func BenchmarkFit128(b *testing.B) {
	X, y, cfg := benchData(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRefit256(b *testing.B) {
	X, y, cfg := benchData(256)
	g, err := Fit(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Refit(g, X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWithData256(b *testing.B) {
	X, y, cfg := benchData(256)
	g, err := Fit(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WithData(g, X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict256(b *testing.B) {
	X, y, cfg := benchData(256)
	g, err := Fit(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := X[17]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PredictWithGrad(x, nil, nil)
	}
}

func BenchmarkPredictWithGrad256(b *testing.B) {
	X, y, cfg := benchData(256)
	g, err := Fit(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := X[17]
	dMu := make([]float64, 12)
	dSD := make([]float64, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PredictWithGrad(x, dMu, dSD)
	}
}

func BenchmarkPredictJointQ8(b *testing.B) {
	X, y, cfg := benchData(256)
	g, err := Fit(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	batch := X[:8]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.PredictJoint(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFantasize256(b *testing.B) {
	X, y, cfg := benchData(256)
	g, err := Fit(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	x := rng.New(2, 2).UniformVec(cfg.Lo, cfg.Hi)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Fantasize(x, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}
