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
