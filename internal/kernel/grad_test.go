package kernel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/simd"
)

// oracleSpecials are the values the gradient and r² oracles lace their
// operands with: signed zeros, subnormals, infinities, extremes and NaNs
// of several payloads and signs, quiet and signaling.
var oracleSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 1, -1,
	math.NaN(),
	math.Float64frombits(0xfff8000000000000),
	math.Float64frombits(0x7ff8000000000123),
	math.Float64frombits(0xfff0000000000001),
}

// oracleVec returns n values starting off entries into their allocation,
// so no slice shares the allocator's alignment: normal values of any
// magnitude, with about one in special a special value (never with
// special 0).
func oracleVec(stream *rng.Stream, n, off, special int) []float64 {
	v := make([]float64, n+off)[off:]
	for i := range v {
		if special > 0 && stream.IntN(special) == 0 {
			v[i] = oracleSpecials[stream.IntN(len(oracleSpecials))]
		} else {
			v[i] = stream.Norm() * math.Exp2(float64(stream.IntN(40)-20))
		}
	}
	return v
}

// oracleKernel returns a kernel of dimension d whose cached variance and
// inverse lengthscales are set directly: ordinary values, or (with
// special > 0) laced with special ones.
func oracleKernel(stream *rng.Stream, d, special int) *Matern52 {
	k := NewMatern52(d)
	k.variance = math.Abs(oracleVec(stream, 1, 0, special)[0])
	copy(k.invLen, oracleVec(stream, d, 0, special))
	for i, v := range k.invLen {
		k.inv2Len[i] = v * v
	}
	return k
}

// bitsDiffer counts the entries of got whose bits differ from want's,
// reporting the first few under label; with anyNaN, two NaNs match
// whatever their payloads. The fuzz targets pass anyNaN: -fuzz builds
// the Go loops with coverage instrumentation, which changes the operand
// order the compiler gives their products, and with it which payload an
// operation on two NaNs keeps. The oracle tests hold the payloads on the
// build that ships.
func bitsDiffer(t *testing.T, label string, got, want []float64, anyNaN bool) int {
	t.Helper()
	bad := 0
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) && !(anyNaN && math.IsNaN(v) && math.IsNaN(got[i])) {
			if bad < 3 {
				t.Errorf("%s entry %d: %v (%#x), Go loop %v (%#x)", label, i,
					got[i], math.Float64bits(got[i]), v, math.Float64bits(v))
			}
			bad++
		}
	}
	return bad
}

// checkHyperGradSum runs HyperGradSum's dispatch (hyperGradVec, else
// the Go loop) and the Go loop alone on copies of part and counts the
// entries whose bits differ; it fails the test where the AVX2 body's
// report is not what the probe and the dimension require.
func checkHyperGradSum(t *testing.T, label string, k *Matern52, part, x, xs, kv, dphi, w []float64, scale float64, anyNaN bool) int {
	t.Helper()
	got := append([]float64(nil), part...)
	want := append([]float64(nil), part...)
	kg := make([]float64, len(part))
	ran := k.hyperGradVec(got, x, xs, kv, dphi, w, scale)
	if ran != (simd.AVX2FMA() && k.Dim()%4 == 0) {
		t.Fatalf("%s: the AVX2 body ran %v on d=%d with AVX2+FMA %v", label, ran, k.Dim(), simd.AVX2FMA())
	}
	if !ran {
		k.hyperGradSumGo(got, kg, x, xs, kv, dphi, w, scale)
	}
	k.hyperGradSumGo(want, kg, x, xs, kv, dphi, w, scale)
	return bitsDiffer(t, label, got, want, anyNaN)
}

// checkGradXSum runs GradXSum's dispatch (gradXVec, else the Go loop) and
// the Go loop alone and counts the entries whose bits differ; it fails
// the test where the AVX2 body's report is not what the probe and the
// dimension require.
func checkGradXSum(t *testing.T, label string, k *Matern52, x, xs, dphi, alpha, w []float64, anyNaN bool) int {
	t.Helper()
	d := k.Dim()
	got := [2][]float64{make([]float64, d+1)[1:], make([]float64, d+3)[3:]}
	want := [2][]float64{make([]float64, d), make([]float64, d)}
	for i := range got[0] {
		got[0][i], got[1][i] = math.NaN(), math.Inf(1) // overwritten, never read
	}
	kg := make([]float64, len(dphi)*d)
	ran := k.gradXVec(got[0], got[1], x, xs, dphi, alpha, w)
	if ran != (simd.AVX2FMA() && d%4 == 0) {
		t.Fatalf("%s: the AVX2 body ran %v on d=%d with AVX2+FMA %v", label, ran, d, simd.AVX2FMA())
	}
	if !ran {
		k.gradXSumGo(got[0], got[1], kg, x, xs, dphi, alpha, w)
	}
	k.gradXSumGo(want[0], want[1], kg, x, xs, dphi, alpha, w)
	return bitsDiffer(t, label+" dMean", got[0], want[0], anyNaN) + bitsDiffer(t, label+" dVar", got[1], want[1], anyNaN)
}

// oracleDims are the dimensions the oracles cover: every remainder mod
// four around the paper's 12, and the fleets' 24.
var oracleDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 24}

// TestHyperGradSumMatchesGoLoop is the LML trace body's oracle: over
// d ∈ {1…13, 24}, 0–67 pairs, misaligned operand starts, scales 2 and 1,
// and operands laced with signed zeros, subnormals, infinities and NaNs
// (the kernel's variance and lengthscales too), the AVX2 body has the Go
// loop's bits, NaN payloads included, and runs exactly where d is a
// multiple of four on an AVX2+FMA host; elsewhere the Go loop runs.
func TestHyperGradSumMatchesGoLoop(t *testing.T) {
	stream := rng.New(71, 2)
	bad, checked := 0, 0
	for _, d := range oracleDims {
		for m := 0; m <= 67; m++ {
			off := m % 4
			special := []int{0, 9, 3}[m%3]
			k := oracleKernel(stream, d, []int{0, 0, 4}[m%3])
			x := oracleVec(stream, d, off, special)
			xs := oracleVec(stream, m*d, 3-off, special)
			kv, dphi, w := oracleVec(stream, m, off, special), oracleVec(stream, m, 1, special), oracleVec(stream, m, 2, special)
			part := oracleVec(stream, 1+d, off, special)
			for _, scale := range []float64{2, 1} {
				label := fmt.Sprintf("d %d m %d scale %v", d, m, scale)
				bad += checkHyperGradSum(t, label, k, part, x, xs, kv, dphi, w, scale, false)
				checked += 1 + d
			}
		}
	}
	if bad != 0 {
		t.Fatalf("%d of %d entries differ from the Go loop", bad, checked)
	}
	t.Logf("%d entries checked, 0 mismatches", checked)
}

// TestGradXSumMatchesGoLoop is the posterior gradient body's oracle, over
// the same dimensions, row counts, misalignments and special values.
func TestGradXSumMatchesGoLoop(t *testing.T) {
	stream := rng.New(73, 2)
	bad, checked := 0, 0
	for _, d := range oracleDims {
		for n := 0; n <= 67; n++ {
			off := n % 4
			special := []int{0, 9, 3}[n%3]
			k := oracleKernel(stream, d, []int{0, 0, 4}[n%3])
			x := oracleVec(stream, d, off, special)
			xs := oracleVec(stream, n*d, 3-off, special)
			dphi, alpha, w := oracleVec(stream, n, off, special), oracleVec(stream, n, 1, special), oracleVec(stream, n, 2, special)
			bad += checkGradXSum(t, fmt.Sprintf("d %d n %d", d, n), k, x, xs, dphi, alpha, w, false)
			checked += 2 * d
		}
	}
	if bad != 0 {
		t.Fatalf("%d of %d entries differ from the Go loop", bad, checked)
	}
	t.Logf("%d entries checked, 0 mismatches", checked)
}

// TestEvalRowSpecialsMatchEval holds EvalRow and EvalRowRadial to the
// per-pair Eval and EvalWithGrad over d ∈ {1…13, 24} and 0–67 rows with
// special coordinates: the vector r² pass where d is a multiple of four,
// the scalar one elsewhere, and every radial row.
func TestEvalRowSpecialsMatchEval(t *testing.T) {
	stream := rng.New(79, 2)
	bad := 0
	for _, d := range oracleDims {
		k := oracleKernel(stream, d, 0)
		grad := make([]float64, k.NumParams())
		for n := 0; n <= 67; n++ {
			x := oracleVec(stream, d, n%4, 7)
			xs := oracleVec(stream, n*d, 0, 7)
			vals := make([]float64, n)
			dst, dphi := make([]float64, n), make([]float64, n)
			k.EvalRow(vals, x, xs)
			k.EvalRowRadial(dst, dphi, x, xs)
			want, wantD := make([]float64, n), make([]float64, n)
			for i := range want {
				row := xs[i*d : (i+1)*d]
				want[i] = k.Eval(x, row)
				_, wantD[i] = phiDeriv(k.r2(x, row))
				if kv := k.EvalWithGrad(x, row, grad); math.Float64bits(kv) != math.Float64bits(want[i]) {
					t.Fatalf("d %d n %d row %d: Eval %v, EvalWithGrad %v", d, n, i, want[i], kv)
				}
			}
			label := fmt.Sprintf("d %d n %d", d, n)
			bad += bitsDiffer(t, label+" EvalRow", vals, want, false)
			bad += bitsDiffer(t, label+" EvalRowRadial", dst, want, false)
			bad += bitsDiffer(t, label+" EvalRowRadial dφ", dphi, wantD, false)
		}
	}
	if bad != 0 {
		t.Fatalf("%d rows differ from the per-pair kernel", bad)
	}
}

// fuzzValues returns a function yielding successive float64s from data,
// eight bytes each (any bit pattern), cycling when the bytes run out.
func fuzzValues(data []byte) func() float64 {
	next := 0
	return func() float64 {
		var bits uint64
		for b := 0; b < 8; b++ {
			bits = bits<<8 | uint64(data[next%len(data)])
			next++
		}
		return math.Float64frombits(bits)
	}
}

// fuzzVec fills n values from value, starting off entries into their
// allocation.
func fuzzVec(value func() float64, n, off int) []float64 {
	v := make([]float64, n+off)[off:]
	for i := range v {
		v[i] = value()
	}
	return v
}

// FuzzHyperGradSum drives the LML trace body's oracle with byte-derived
// operands: the first byte picks d (1–13 or 24) and the scale, the
// second the pair count (0–67) and a misalignment; the rest fills the
// kernel's variance and inverse lengthscales and then every operand. Two
// NaNs match whatever their payloads (see bitsDiffer).
func FuzzHyperGradSum(f *testing.F) {
	f.Add([]byte{11, 9, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		d, scale := oracleDims[int(data[0])%len(oracleDims)], float64(1+int(data[0])>>7)
		m, off := int(data[1])%68, int(data[1])>>6
		value := fuzzValues(data[2:])
		k := NewMatern52(d)
		k.variance = value()
		for i := range k.invLen {
			k.invLen[i] = value()
			k.inv2Len[i] = k.invLen[i] * k.invLen[i]
		}
		x, xs := fuzzVec(value, d, off), fuzzVec(value, m*d, 3-off)
		kv, dphi, w := fuzzVec(value, m, off), fuzzVec(value, m, 1), fuzzVec(value, m, 2)
		part := fuzzVec(value, 1+d, off)
		if bad := checkHyperGradSum(t, "fuzz", k, part, x, xs, kv, dphi, w, scale, true); bad != 0 {
			t.Fatalf("%d of %d entries differ from the Go loop", bad, 1+d)
		}
	})
}

// FuzzGradXSum drives the posterior gradient body's oracle with
// byte-derived operands, laid out as FuzzHyperGradSum's; two NaNs match
// whatever their payloads (see bitsDiffer).
func FuzzGradXSum(f *testing.F) {
	f.Add([]byte{11, 9, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		d := oracleDims[int(data[0])%len(oracleDims)]
		n, off := int(data[1])%68, int(data[1])>>6
		value := fuzzValues(data[2:])
		k := NewMatern52(d)
		k.variance = value()
		for i := range k.invLen {
			k.invLen[i] = value()
			k.inv2Len[i] = k.invLen[i] * k.invLen[i]
		}
		x, xs := fuzzVec(value, d, off), fuzzVec(value, n*d, 3-off)
		dphi, alpha, w := fuzzVec(value, n, off), fuzzVec(value, n, 1), fuzzVec(value, n, 2)
		if bad := checkGradXSum(t, "fuzz", k, x, xs, dphi, alpha, w, true); bad != 0 {
			t.Fatalf("%d of %d entries differ from the Go loop", bad, 2*d)
		}
	})
}
