// Package detorder is a pbolint fixture: accumulation in map-iteration
// order, wall-clock reads, and rng draws on streams captured by parallel
// regions must be reported; sanctioned seams carry reasoned
// suppressions, and a typoed analyzer name in a directive is itself
// reported.
package detorder

import (
	"sort"
	"time"
)

// Stream mirrors the project's rng.Stream draw surface; the analyzer
// matches it by name because fixtures cannot import internal/rng.
type Stream struct{ state uint64 }

// Split derives a child stream, advancing the parent.
func (s *Stream) Split(i uint64) *Stream { s.state += i; return &Stream{state: s.state} }

// Float64 draws from the stream, advancing it.
func (s *Stream) Float64() float64 { s.state++; return 0 }

// ForEach mirrors parallel.ForEach's shape; the fixture body runs
// serially so the fixture itself spawns no goroutines.
func ForEach(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// rec collects lines; Print mirrors an output sink by name.
type rec struct{ lines []string }

// Print records one line.
func (r *rec) Print(s string) { r.lines = append(r.lines, s) }

// Keys accumulates in map order with no sort after the loop — reported.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// KeysSorted sorts after the loop — silent.
func KeysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Dump writes output in map-iteration order — reported.
func Dump(m map[string]int, r *rec) {
	for k := range m {
		r.Print(k)
	}
}

// Elapsed measures with the wall clock — both reads reported.
func Elapsed() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// DefaultClock stores a wall-clock reference, not a call — reported.
var DefaultClock = time.Now

// Stamp is a sanctioned wall-clock seam — suppressed.
func Stamp() time.Time {
	//lint:ignore detorder fixture: sanctioned wall-clock seam
	return time.Now()
}

// SharedDraw splits a captured stream inside the region — reported; the
// draw on the region-local child stays silent.
func SharedDraw(n int, s *Stream) []float64 {
	out := make([]float64, n)
	ForEach(n, func(i int) {
		child := s.Split(uint64(i))
		out[i] = child.Float64()
	})
	return out
}

// PreSplit draws only from per-index streams — silent.
func PreSplit(n int, s *Stream) []float64 {
	streams := make([]*Stream, n)
	for i := range streams {
		streams[i] = s.Split(uint64(i))
	}
	out := make([]float64, n)
	ForEach(n, func(i int) {
		out[i] = streams[i].Float64()
	})
	return out
}

// DrawInGo draws from a captured stream inside a goroutine — reported.
func DrawInGo(s *Stream, done chan float64) {
	//lint:ignore godiscipline fixture: parallel region under analysis
	go func() {
		done <- s.Float64()
	}()
}

// Mix draws serially — silent for detorder, but the directive names an
// analyzer that does not exist and is itself reported.
func Mix(s *Stream) float64 {
	//lint:ignore determinism fixture: typoed analyzer name
	return s.Float64()
}

// ForEachBand mirrors parallel.ForEachBand's shape: fn(lo, hi) per band.
func ForEachBand(n, band int, fn func(lo, hi int)) {
	for lo := 0; lo < n; lo += band {
		fn(lo, min(lo+band, n))
	}
}

// Compute mirrors parallel.Compute's shape: the budgeted per-index form.
func Compute(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// BandDraw draws from a captured stream inside a band body — reported.
func BandDraw(n int, s *Stream) []float64 {
	out := make([]float64, n)
	ForEachBand(n, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = s.Float64()
		}
	})
	return out
}

// ComputeDraw draws from a captured stream inside a budgeted per-index
// body — reported; the per-index stream stays silent.
func ComputeDraw(n int, s *Stream, streams []*Stream) []float64 {
	out := make([]float64, n)
	Compute(n, func(i int) {
		out[i] = s.Float64() + streams[i].Float64()
	})
	return out
}

// ForEach on a value is not a parallel fan-out: its body runs serially.
func (r *rec) ForEach(fn func(string)) {
	for _, l := range r.lines {
		fn(l)
	}
}

// SerialMethod draws from a captured stream in a serial ForEach method —
// silent.
func SerialMethod(r *rec, s *Stream) float64 {
	var sum float64
	r.ForEach(func(string) {
		sum += s.Float64()
	})
	return sum
}
