package gp

import (
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/rng"
)

// The LargeN suite measures prediction at n = 4096, where ROADMAP's
// large-n items bite. Fitting a real 4096-point GP would cost an O(n³)
// factorization per bench process, so the model is assembled directly
// from a synthetic well-conditioned lower factor via CholeskyFromLower —
// the prediction hot path (k★ fill, triangular solves, ExtendCols) has the
// same cost structure either way.

const (
	largeN = 4096
	largeD = 12
)

var largeGPOnce = sync.OnceValue(func() *GP {
	stream := rng.New(41, 9)
	lo := make([]float64, largeD)
	hi := make([]float64, largeD)
	for i := range hi {
		hi[i] = 1
	}
	g := &GP{
		cfg:   Config{Lo: lo, Hi: hi},
		kern:  kernel.NewMatern52(largeD),
		d:     largeD,
		ymean: 0, ystd: 1,
		noise:  1e-6,
		fitLML: 0,
	}
	g.warmParams = g.kern.Params(nil)
	g.x = mat.NewDense(largeN, largeD, nil)
	for i := 0; i < largeN; i++ {
		copy(g.x.Row(i), stream.UniformVec(lo, hi))
	}
	g.ys = make([]float64, largeN)
	for i := range g.ys {
		g.ys[i] = stream.Norm()
	}
	// The factor's diagonal is deliberately large (prior variance ≫ any
	// k★ norm) so every posterior covariance downstream stays PD; the
	// solve cost only depends on n, not the values.
	l := mat.NewDense(largeN, largeN, nil)
	for i := 0; i < largeN; i++ {
		row := l.Row(i)
		for j := 0; j < i; j++ {
			row[j] = 0.25 / largeN
		}
		row[i] = 100
	}
	ch, err := mat.CholeskyFromLower(l)
	if err != nil {
		panic(err)
	}
	g.chol = ch
	g.alpha = ch.SolveVec(g.ys)
	g.initWorkspacePool()
	return g
})

func largeBenchPoints(q int) [][]float64 {
	stream := rng.New(43, 11)
	lo := make([]float64, largeD)
	hi := make([]float64, largeD)
	for i := range hi {
		hi[i] = 1
	}
	xs := make([][]float64, q)
	for i := range xs {
		xs[i] = stream.UniformVec(lo, hi)
	}
	return xs
}

func BenchmarkLargeNPredict4096(b *testing.B) {
	g := largeGPOnce()
	x := largeBenchPoints(1)[0]
	g.PredictWithGrad(x, nil, nil) // warm-up: fills the workspace pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PredictWithGrad(x, nil, nil)
	}
}

func BenchmarkLargeNPredictWithGrad4096(b *testing.B) {
	g := largeGPOnce()
	x := largeBenchPoints(1)[0]
	dMean := make([]float64, largeD)
	dSD := make([]float64, largeD)
	g.PredictWithGrad(x, dMean, dSD) // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PredictWithGrad(x, dMean, dSD)
	}
}

func BenchmarkLargeNPredictJoint4096Q8(b *testing.B) {
	g := largeGPOnce()
	xs := largeBenchPoints(8)
	if _, err := g.PredictJoint(xs); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.PredictJoint(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLargeNFantasize4096(b *testing.B) {
	g := largeGPOnce()
	x := largeBenchPoints(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Fantasize(x, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
