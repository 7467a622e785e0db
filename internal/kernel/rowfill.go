package kernel

import (
	"context"

	"repro/internal/parallel"
)

// ParallelRowThreshold is the training-set size at which the batched k★
// fills split into bands over parallel.ForEachBand, on the caller plus
// whatever helpers the process-wide budget lends. Below it the per-call
// goroutine cost exceeds the fill itself; above it the fill is
// embarrassingly parallel across rows. 4096 rows ≈ the point where one
// fill clearly outweighs the fan-out overhead for the paper's input
// dimensions.
const ParallelRowThreshold = 4096

// parallelRowChunk is the contiguous row-block granularity of the
// parallel split. The partition depends only on the row count — never
// on the worker count, the budget or scheduling — and every chunk writes
// a disjoint destination range with no shared accumulators, so the
// filled block is bitwise-identical to a serial EvalRow for any
// GOMAXPROCS.
const parallelRowChunk = 1024

// EvalRowAuto fills dst[i] = k(x, X_i) over the flat row-major block xs,
// exactly like k.EvalRow, splitting the fill into bands when the block
// is at least ParallelRowThreshold rows. Bitwise-identical to the
// serial form either way.
func EvalRowAuto(k *Matern52, dst, x, xs []float64) {
	n := len(dst)
	if n < ParallelRowThreshold {
		k.EvalRow(dst, x, xs)
		return
	}
	d := k.Dim()
	if err := parallel.ForEachBand(context.Background(), 0, n, parallelRowChunk, func(lo, hi int) {
		k.EvalRow(dst[lo:hi], x, xs[lo*d:hi*d])
	}); err != nil {
		panic(err) // unreachable: the background context is never cancelled
	}
}

// EvalRowRadialAuto is EvalRowAuto for k.EvalRowRadial: values into dst,
// radial derivatives into dphi (length len(dst)), split into bands above
// ParallelRowThreshold with the same deterministic partition and
// bitwise-identical output.
func EvalRowRadialAuto(k *Matern52, dst, dphi, x, xs []float64) {
	n := len(dst)
	if n < ParallelRowThreshold {
		k.EvalRowRadial(dst, dphi, x, xs)
		return
	}
	d := k.Dim()
	if err := parallel.ForEachBand(context.Background(), 0, n, parallelRowChunk, func(lo, hi int) {
		k.EvalRowRadial(dst[lo:hi], dphi[lo:hi], x, xs[lo*d:hi*d])
	}); err != nil {
		panic(err) // unreachable: the background context is never cancelled
	}
}
