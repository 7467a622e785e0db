package gp

import (
	"runtime"
	"testing"
)

// The Fit suite measures the per-iteration cost of hyperparameter
// optimization — one logMarginalLikelihood evaluation is exactly what
// every L-BFGS iteration of every restart pays — the whole cold fit at
// the paper day's size, with its starts concurrent and forced serial,
// plus the resident factor footprint at n = 4096. scripts/bench.sh
// collects these into BENCH_fit.json; the -check gates hold the parallel
// path to at worst the serial path and the packed factor to well under
// the dense 2·n² baseline it replaced.

// fitLMLBench builds a fitted GP over n synthetic points plus a probe
// parameter vector and a sized workspace, mirroring the state
// optimizeHyper holds during a fit at FitSubsetMax ≥ n. The setup Fit
// keeps benchData's small FitSubsetMax so the hyperparameter search
// stays cheap; the timed evaluations below run over all n rows.
func fitLMLBench(b *testing.B, n int) (*GP, []float64, *fitWorkspace) {
	b.Helper()
	X, y, cfg := benchData(n)
	g, err := Fit(X, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := append([]float64(nil), g.warmParams...)
	ws := fitWorkspaceFor(g, g.x, len(p))
	return g, p, ws
}

func benchFitLML(b *testing.B, n int) {
	g, p, ws := fitLMLBench(b, n)
	if _, _, err := ws.logMarginalLikelihood(g.x, g.ys, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ws.logMarginalLikelihood(g.x, g.ys, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitLML128 runs entirely on the serial branches (n below both
// thresholds); its bytes/op pins the pooled-workspace contract at the
// default FitSubsetMax scale.
func BenchmarkFitLML128(b *testing.B) { benchFitLML(b, 128) }

// BenchmarkLMLGrad184 times the gradient half of one LML evaluation at a
// paper day's last fit (n = 184, d = 12) on the value pass it reuses, as
// L-BFGS asks for it at an accepted step: the inverse, A = ααᵀ − K⁻¹ and
// the trace.
func BenchmarkLMLGrad184(b *testing.B) {
	g, p, ws := fitLMLBench(b, 184)
	if _, err := ws.lmlValue(g.x, g.ys, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.lmlGrad(g.x, len(p))
	}
}

// BenchmarkFitLML1024 exercises the banded parallel Gram fill, inverse
// and gradient trace (n above gramParallelN, invParallelN and
// lmlGradBandN).
func BenchmarkFitLML1024(b *testing.B) { benchFitLML(b, 1024) }

// BenchmarkFitLML1024Serial runs the same evaluation serially: at
// GOMAXPROCS 1, where the helper budget lends nothing, so the inverse's
// bands run one after another on the caller, and with the Gram and
// gradient-trace thresholds forced off, so those two take their serial
// branches. BENCH_fit.json then carries the parallel-vs-serial comparison
// at identical n, and the -check floor holds the parallel path to at
// worst serial cost.
func BenchmarkFitLML1024Serial(b *testing.B) {
	oldGram, oldBand := gramParallelN, lmlGradBandN
	gramParallelN, lmlGradBandN = 1<<30, 1<<30
	defer func() { gramParallelN, lmlGradBandN = oldGram, oldBand }()
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	benchFitLML(b, 1024)
}

// BenchmarkFitFactorBytes4096 reports the resident footprint of the
// n = 4096 factor as a factor-bytes metric: one packed lower triangle,
// n·(n+1)/2·8 = 67125248 bytes, the figure bench.sh -check gates. The
// timed loop is a solve so the metric is attached to live work, not a
// no-op body.
func BenchmarkFitFactorBytes4096(b *testing.B) {
	g := largeGPOnce()
	y := make([]float64, largeN)
	for i := range y {
		y[i] = float64(i%7) - 3
	}
	out := make([]float64, largeN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.chol.SolveVecInto(out, y)
	}
	b.ReportMetric(float64(g.chol.FactorBytes()), "factor-bytes")
}

// benchFitHyper184 times a cold Fit on paper-day-shaped data — n = 184
// points in 12 dimensions under the default Config, so three
// hyperparameter starts — at the current GOMAXPROCS.
func benchFitHyper184(b *testing.B) {
	xs, ys, cfg := paperDayData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(xs, ys, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitHyper184 is the whole fit with its starts running on
// whatever helpers the process-wide budget lends.
func BenchmarkFitHyper184(b *testing.B) { benchFitHyper184(b) }

// BenchmarkFitHyper184Serial is the same fit at GOMAXPROCS 1, where the
// budget has no helper and the starts run one after another. Its ratio
// to BenchmarkFitHyper184 is the concurrent starts' speed-up on the
// recording host; bench.sh gates only its presence, because a timing
// ratio flakes on a shared host.
func BenchmarkFitHyper184Serial(b *testing.B) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	benchFitHyper184(b)
}
