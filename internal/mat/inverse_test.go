package mat

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// specialFactor returns a lower-triangular factor of order n for the
// inverse oracle: off-diagonal entries from sweepOperand (every seventh a
// signed zero, subnormal, infinity, NaN or extreme), diagonal entries
// positive and finite, some of them subnormal or huge.
func specialFactor(stream *rng.Stream, n, salt int) *Cholesky {
	l := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		row := sweepOperand(stream, i+1, salt+i)
		copy(l.Row(i), row)
		switch d := math.Abs(row[i]); {
		case (i+salt)%11 == 5:
			l.Set(i, i, 5e-324)
		case (i+salt)%13 == 7:
			l.Set(i, i, math.MaxFloat64)
		case d > 0 && d < math.Inf(1):
			l.Set(i, i, d)
		default:
			l.Set(i, i, 1)
		}
	}
	c, err := CholeskyFromLower(l)
	if err != nil {
		panic(err)
	}
	return c
}

// nanPayloads are NaNs with distinct payloads and signs, quiet and
// signaling: which one a product of two NaNs keeps depends on its operand
// order.
var nanPayloads = []float64{
	math.NaN(),
	math.Float64frombits(0xfff8000000000000), // the default NaN arithmetic makes
	math.Float64frombits(0x7ff8000000000123),
	math.Float64frombits(0xfff0000000000001), // signaling
}

// specialScratch returns phase-one scratch of order n whose rows hold
// arbitrary values from column i on: normal values of any magnitude with
// about one in eight a signed zero, subnormal, infinity, extreme or NaN
// of one of several payloads. Cells left of the diagonal hold +Inf, which
// no product may read.
func specialScratch(stream *rng.Stream, n int) *Dense {
	wt := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		row := wt.Row(i)
		for k := range row {
			switch r := stream.Float64(); {
			case k < i:
				row[k] = math.Inf(1)
			case r < 0.06:
				row[k] = sweepSpecials[int(stream.Float64()*float64(len(sweepSpecials)))]
			case r < 0.12:
				row[k] = nanPayloads[int(stream.Float64()*float64(len(nanPayloads)))]
			default:
				row[k] = stream.Norm() * math.Exp2(float64(int(stream.Float64()*80)-40))
			}
		}
	}
	return wt
}

// checkInverseProduct runs the product phase as InverseInto dispatches it
// (invTransposeVec, then invProduct over bands of band rows) on a copy of
// the phase-one scratch wt whose data starts off entries into its
// allocation, and counts the cells whose bits differ from the Go product
// loop over wt itself (with anyNaN, two NaNs match whatever their
// payloads).
func checkInverseProduct(t *testing.T, wt *Dense, off, band int, anyNaN bool) int {
	t.Helper()
	n := wt.rows
	c := &Cholesky{n: n}
	want := NewDense(n, n, nil)
	c.invProductRows(want, wt, 0, n)

	scratch := NewDense(n, n, make([]float64, n*n+off+1)[off+1:])
	copy(scratch.data, wt.data)
	inv := NewDense(n, n, make([]float64, n*n+off)[off:])
	for i := range inv.data {
		inv.data[i] = math.NaN()
	}
	vec := invTransposeVec(scratch)
	for lo := 0; lo < n; lo += band {
		c.invProduct(inv, scratch, vec, lo, min(lo+band, n))
	}
	return countMismatches(t, inv, want, fmt.Sprintf("n %d off %d band %d", n, off, band), anyNaN)
}

// countMismatches counts the cells of got whose bits differ from want's,
// reporting the first few; with anyNaN, two NaNs match whatever their
// payloads.
func countMismatches(t *testing.T, got, want *Dense, label string, anyNaN bool) int {
	t.Helper()
	n := want.cols
	bad := 0
	for i, v := range want.data {
		if !sameBits(got.data[i], v) && !(anyNaN && math.IsNaN(v) && math.IsNaN(got.data[i])) {
			if bad < 5 {
				t.Errorf("%s cell (%d, %d): %v (%#x), Go loop %v (%#x)", label,
					i/n, i%n, got.data[i], math.Float64bits(got.data[i]), v, math.Float64bits(v))
			}
			bad++
		}
	}
	return bad
}

// TestInverseProductMatchesGoLoop is the inverse product's oracle: on
// scratch of order 0–67 laced with signed zeros, subnormals, infinities
// and NaNs of several payloads, at four misalignments of both matrices'
// starts, in one band and in bands of five rows, the product phase (the
// AVX2 body where the probe allows it) has the bits of the Go product
// loop, NaN payloads included.
func TestInverseProductMatchesGoLoop(t *testing.T) {
	stream := rng.New(43, 4)
	bad, checked := 0, 0
	for n := 0; n <= 67; n++ {
		wt := specialScratch(stream, n)
		for off := 0; off < 4; off++ {
			for _, band := range []int{max(n, 1), 5} {
				bad += checkInverseProduct(t, wt, off, band, false)
				checked += n * n
			}
		}
	}
	if bad != 0 {
		t.Fatalf("%d of %d cells differ from the Go loop", bad, checked)
	}
	t.Logf("%d cells checked, 0 mismatches", checked)
}

// TestInverseIntoMatchesGoLoop runs InverseInto end to end on factors
// laced with special values, on both sides of invParallelN, against the
// Go phase one and product loop.
func TestInverseIntoMatchesGoLoop(t *testing.T) {
	stream := rng.New(47, 4)
	bad := 0
	for _, n := range []int{0, 1, 5, 17, 40, 67, 130} {
		c := specialFactor(stream, n, n)
		wt := NewDense(n, n, nil)
		c.invTransposeRows(wt, 0, n)
		want := NewDense(n, n, nil)
		c.invProductRows(want, wt, 0, n)
		for _, threshold := range []int{invParallelN, 1} {
			old := invParallelN
			invParallelN = threshold
			scratch := NewDense(n, n, nil)
			for i := range scratch.data {
				scratch.data[i] = math.Inf(-1)
			}
			got := c.InverseInto(NewDense(n, n, nil), scratch)
			invParallelN = old
			bad += countMismatches(t, got, want, fmt.Sprintf("n %d invParallelN %d", n, threshold), false)
		}
	}
	if bad != 0 {
		t.Fatalf("%d cells differ from the Go loop", bad)
	}
}

// FuzzInverseProduct drives the product oracle with byte-derived
// scratch: the first byte picks the order (0–40), the second the
// misalignment and the band width (1–8 rows or one band); the rest, eight
// bytes a value (any bit pattern), fills each row from its diagonal on,
// cycling when the bytes run out. Two NaNs match whatever their payloads:
// -fuzz builds the Go loop with coverage instrumentation, which changes
// the operand order the compiler gives its products, and with it which
// payload a product of two NaNs keeps; TestInverseProductMatchesGoLoop
// holds the payloads on the build that ships.
func FuzzInverseProduct(f *testing.F) {
	f.Add([]byte{9, 1, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		n, off, band := int(data[0])%41, int(data[1])%4, int(data[1])>>2%9
		if band == 0 {
			band = max(n, 1)
		}
		data = data[2:]
		next := 0
		value := func() float64 {
			var bits uint64
			for b := 0; b < 8; b++ {
				bits = bits<<8 | uint64(data[next%len(data)])
				next++
			}
			return math.Float64frombits(bits)
		}
		wt := NewDense(n, n, nil)
		for i := 0; i < n; i++ {
			for k := i; k < n; k++ {
				wt.Set(i, k, value())
			}
		}
		if bad := checkInverseProduct(t, wt, off, band, true); bad != 0 {
			t.Fatalf("%d of %d cells differ from the Go loop", bad, n*n)
		}
	})
}
