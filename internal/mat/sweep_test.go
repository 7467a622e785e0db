package mat

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// sweepSpecials are the values the sweep oracle mixes into its operands:
// signed zeros, subnormals, infinities, NaN and the extremes of the
// normal range.
var sweepSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// sweepOperand fills n values, every seventh a special one, from stream.
func sweepOperand(stream *rng.Stream, n, salt int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if (i+salt)%7 == 3 {
			v[i] = sweepSpecials[(i*5+salt)%len(sweepSpecials)]
		} else {
			v[i] = stream.Norm() * math.Exp2(float64(int(stream.Float64()*80)-40))
		}
	}
	return v
}

// sameBits is bit equality; the sweep must reproduce the Go loop's exact
// bits, NaN payloads included.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkSubMul4 runs the sweep as factorize dispatches it (subMul4Vec,
// else subMul4Go) and its Go oracle on copies of dst and reports every
// entry whose bits differ.
func checkSubMul4(t *testing.T, dst, c0, c1, c2, c3 []float64, a0, a1, a2, a3 float64) int {
	t.Helper()
	got := append([]float64(nil), dst...)
	want := append([]float64(nil), dst...)
	if !subMul4Vec(got, c0, c1, c2, c3, a0, a1, a2, a3) {
		subMul4Go(got, c0, c1, c2, c3, a0, a1, a2, a3)
	}
	subMul4Go(want, c0, c1, c2, c3, a0, a1, a2, a3)
	bad := 0
	for i := range want {
		if !sameBits(got[i], want[i]) {
			if bad < 5 {
				t.Errorf("len %d entry %d: sweep %v (%#x), Go loop %v (%#x)", len(dst), i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
			bad++
		}
	}
	return bad
}

// TestSubMul4MatchesGoLoop is the sweep's oracle: over lengths 0–67, all
// four misalignments of every operand's start, operands laced with
// signed zeros, subnormals, infinities and NaN, and columns whose entries
// and multiplier are NaNs of different payloads, the dispatched sweep
// (the vector body where the probe allows it) has the Go loop's bits.
func TestSubMul4MatchesGoLoop(t *testing.T) {
	stream := rng.New(41, 4)
	bad, checked := 0, 0
	for n := 0; n <= 67; n++ {
		// Column k's multiplier and entries are NaNs of different
		// payloads and everything else is finite, so each product of
		// column k meets two NaNs and the entry keeps the payload of the
		// product's first operand.
		for k := 0; k < 4; k++ {
			ops := make([][]float64, 5)
			for j := range ops {
				ops[j] = make([]float64, n)
				for i := range ops[j] {
					ops[j][i] = 1.5 + float64(i)
					if j == k+1 {
						ops[j][i] = nanPayloads[i%len(nanPayloads)]
					}
				}
			}
			a := [4]float64{0.5, 0.5, 0.5, 0.5}
			a[k] = nanPayloads[(k+1)%len(nanPayloads)]
			bad += checkSubMul4(t, ops[0], ops[1], ops[2], ops[3], ops[4], a[0], a[1], a[2], a[3])
			checked += n
		}
		for off := 0; off < 4; off++ {
			ops := make([][]float64, 5)
			for j := range ops {
				// The slice starts off entries into its backing array, so
				// no operand shares the allocation's 32-byte alignment.
				ops[j] = sweepOperand(stream, n+off+j, n+j)[off+j:]
			}
			for s := 0; s < 3; s++ {
				a := [4]float64{stream.Norm(), stream.Norm(), stream.Norm(), stream.Norm()}
				if s == 2 {
					a[n%4] = sweepSpecials[(n+off)%len(sweepSpecials)]
				}
				bad += checkSubMul4(t, ops[0], ops[1], ops[2], ops[3], ops[4], a[0], a[1], a[2], a[3])
				checked += n
			}
		}
	}
	if bad != 0 {
		t.Fatalf("%d of %d entries differ from the Go loop", bad, checked)
	}
	t.Logf("%d entries checked, 0 mismatches", checked)
}

// FuzzSubMul4 drives the sweep oracle with byte-derived operands: the
// first byte picks the length (0–67) and the second the start offset;
// the rest, eight bytes a value (any bit pattern, NaN and subnormals
// included), fills the four multipliers and then the five operands,
// cycling when the bytes run out.
func FuzzSubMul4(f *testing.F) {
	f.Add([]byte{9, 1, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		n, off := int(data[0])%68, int(data[1])%4
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
		a0, a1, a2, a3 := value(), value(), value(), value()
		ops := make([][]float64, 5)
		for j := range ops {
			ops[j] = make([]float64, n+off)[off:]
			for i := range ops[j] {
				ops[j][i] = value()
			}
		}
		if bad := checkSubMul4(t, ops[0], ops[1], ops[2], ops[3], ops[4], a0, a1, a2, a3); bad != 0 {
			t.Fatalf("%d of %d entries differ from the Go loop", bad, n)
		}
	})
}

// checkBackSweep runs the back-solve sweep as backSolve dispatches it
// (backSweepVec, else backSweepGo) and its Go oracle on copies of y
// against the packed factor l of order n, and reports every entry whose
// bits differ (with anyNaN, two NaNs match whatever their payloads).
func checkBackSweep(t *testing.T, y, l []float64, n int, x [4]float64, anyNaN bool) int {
	t.Helper()
	got := append([]float64(nil), y...)
	want := append([]float64(nil), y...)
	if !backSweepVec(got, l, n, x[0], x[1], x[2], x[3]) {
		backSweepGo(got, l, n, x[0], x[1], x[2], x[3])
	}
	backSweepGo(want, l, n, x[0], x[1], x[2], x[3])
	bad := 0
	for i, v := range want {
		if !sameBits(got[i], v) && !(anyNaN && math.IsNaN(v) && math.IsNaN(got[i])) {
			if bad < 5 {
				t.Errorf("n %d rows %d… entry %d: sweep %v (%#x), Go loop %v (%#x)", n, len(y), i,
					got[i], math.Float64bits(got[i]), v, math.Float64bits(v))
			}
			bad++
		}
	}
	return bad
}

// TestBackSweepMatchesGoLoop is the back-solve sweep's oracle: for every
// order n = 0–70 and every block of four rows m…m+3 a solve of that order
// sweeps (so every residue of m mod 4 and every start of the packed
// columns' blocks), on factors laced with signed zeros, subnormals,
// infinities and NaN, with ordinary and special multipliers, and with a
// factor row and its multiplier NaNs of different payloads, the
// dispatched sweep (the vector body where the probe allows it) has the Go
// loop's bits.
func TestBackSweepMatchesGoLoop(t *testing.T) {
	stream := rng.New(43, 6)
	bad, checked := 0, 0
	for n := 0; n <= 70; n++ {
		l := sweepOperand(stream, packedLen(n), n)
		for m := 0; m+4 <= n; m++ {
			y := sweepOperand(stream, m, m+n)
			for s := 0; s < 2; s++ {
				x := [4]float64{stream.Norm(), stream.Norm(), stream.Norm(), stream.Norm()}
				if s == 1 {
					x[m%4] = sweepSpecials[(n+m)%len(sweepSpecials)]
				}
				bad += checkBackSweep(t, y, l, n, x, false)
				checked += m
			}
			// Row r's entries and its multiplier x[3−r] are NaNs of
			// different payloads and everything else is finite, so every
			// product of row r meets two NaNs and the entry keeps the
			// payload of the product's first operand.
			r := (m + n) % 4
			ln := make([]float64, len(l))
			for i := range ln {
				ln[i] = 1.5 + float64(i%9)
			}
			for i, o := 0, m; i < m; i++ {
				ln[o+r] = nanPayloads[i%len(nanPayloads)]
				o += n - i - 1
			}
			yf := make([]float64, m)
			for i := range yf {
				yf[i] = 0.25 * float64(i+1)
			}
			x := [4]float64{0.5, 0.5, 0.5, 0.5}
			x[3-r] = nanPayloads[(m+1)%len(nanPayloads)]
			bad += checkBackSweep(t, yf, ln, n, x, false)
			checked += m
		}
	}
	if bad != 0 {
		t.Fatalf("%d of %d entries differ from the Go loop", bad, checked)
	}
	t.Logf("%d entries checked, 0 mismatches", checked)
}

// FuzzBackSweep drives the back-solve sweep's oracle with byte-derived
// operands: the first byte picks the order n (4–70), the second the
// block's first row m (0…n−4); the rest, eight bytes a value (any bit
// pattern: NaNs of any payload, ±Inf, subnormals), fills the four
// multipliers, then the packed factor, then y, cycling when the bytes
// run out. Two NaNs match whatever their payloads: -fuzz builds the Go
// loop with coverage instrumentation, which can change the operand order
// the compiler gives its products; TestBackSweepMatchesGoLoop holds the
// payloads on the build that ships.
func FuzzBackSweep(f *testing.F) {
	f.Add([]byte{9, 1, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		n := 4 + int(data[0])%67
		m := int(data[1]) % (n - 3)
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
		x := [4]float64{value(), value(), value(), value()}
		l := make([]float64, packedLen(n))
		for i := range l {
			l[i] = value()
		}
		y := make([]float64, m)
		for i := range y {
			y[i] = value()
		}
		if bad := checkBackSweep(t, y, l, n, x, true); bad != 0 {
			t.Fatalf("%d of %d entries differ from the Go loop", bad, m)
		}
	})
}
