//go:build amd64 && !purego

package kernel

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/simd"
)

// TestRadialVectorEnabled makes a silent fallback fail loudly: where the
// probe finds AVX2 and FMA and no GODEBUG cpu option has turned a
// feature off for the math package, the self-check must have passed and
// EvalRow and EvalRowRadial must take the vector pass.
func TestRadialVectorEnabled(t *testing.T) {
	if !simd.AVX2FMA() {
		t.Skip("the probe found no AVX2+FMA")
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG sets a cpu option")
	}
	if !radialVector {
		t.Fatal("AVX2+FMA host, but the radial pass's self-check switched it off")
	}
}

// TestGradVectorEnabled does for the r² pass and the two gradient bodies
// what TestRadialVectorEnabled does for the radial pass: on an AVX2+FMA
// host each must take the paper's d = 12 and the fleets' d = 24, and
// decline d = 6.
func TestGradVectorEnabled(t *testing.T) {
	if !simd.AVX2FMA() {
		t.Skip("the probe found no AVX2+FMA")
	}
	for _, d := range []int{6, 12, 24} {
		const n = 9
		k := NewMatern52(d)
		stream := rng.New(89, uint64(d))
		_, xs := rowBlock(stream, n, d)
		x := randPoint(stream, d)
		v, dphi := make([]float64, n), make([]float64, n)
		want := d%4 == 0
		if got := r2Vec(v, x, xs, k.invLen); got != want {
			t.Errorf("d=%d: r² pass ran %v, want %v", d, got, want)
		}
		if got := k.hyperGradVec(make([]float64, 1+d), x, xs, v, dphi, v, 2); got != want {
			t.Errorf("d=%d: LML trace body ran %v, want %v", d, got, want)
		}
		if got := k.gradXVec(make([]float64, d), make([]float64, d), x, xs, dphi, v, v); got != want {
			t.Errorf("d=%d: posterior gradient body ran %v, want %v", d, got, want)
		}
	}
}

// TestRadialBlocksDecline pins where the vector body stops: at the first
// block with a lane at t ≥ 708 or NaN, leaving that block's r² in place.
func TestRadialBlocksDecline(t *testing.T) {
	below := math.Nextafter(708, 0) * math.Nextafter(708, 0) / 5
	for _, s := range []float64{100253, 1e6, math.Inf(1), math.NaN(), -1} {
		for lane := 0; lane < 4; lane++ {
			r2 := []float64{1, 2, 3, below, 0.5, 0.5, 0.5, 0.5, 7, 7, 7, 7}
			r2[4+lane] = s
			dst := append([]float64(nil), r2...)
			dphi := make([]float64, len(r2))
			if got := radialAVX2(&dst[0], &dphi[0], len(dst), 1); got != 4 {
				t.Fatalf("r²=%v in lane %d: vector body finished %d rows, want 4", s, lane, got)
			}
			for i := 4; i < len(r2); i++ {
				if math.Float64bits(dst[i]) != math.Float64bits(r2[i]) {
					t.Fatalf("r²=%v in lane %d: row %d written past the declined block", s, lane, i)
				}
			}
		}
	}
}

// TestRadialSelfCheckUnderFMAOff reruns this package's tests in a child
// process under GODEBUG=cpu.fma=off, where math.Exp leaves its FMA
// branch: there the self-check must switch the radial pass off and the
// row fills must still equal the per-pair Go path.
func TestRadialSelfCheckUnderFMAOff(t *testing.T) {
	if !simd.AVX2FMA() {
		t.Skip("the probe found no AVX2+FMA")
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("already a child")
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^TestRadialFMAOffChild$", "-test.v", "-test.count", "1")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestRadialFMAOffChild") {
		t.Fatalf("child under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}

// TestRadialFMAOffChild is TestRadialSelfCheckUnderFMAOff's child; it
// runs only under GODEBUG=cpu.fma=off.
func TestRadialFMAOffChild(t *testing.T) {
	if !strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		t.Skip("runs only as the GODEBUG=cpu.fma=off child")
	}
	if radialVector {
		t.Fatal("math.Exp has left its FMA branch, but the radial pass stayed on")
	}
	if radialSelfCheck() {
		t.Fatal("the self-check passes although math.Exp has left its FMA branch")
	}
	const d, n = 12, 67
	stream := rng.New(8, 1)
	rows, flat := rowBlock(stream, n, d)
	x := randPoint(stream, d)
	k := NewMatern52(d)
	dst, dphi := make([]float64, n), make([]float64, n)
	k.EvalRowRadial(dst, dphi, x, flat)
	grad := make([]float64, k.NumParams())
	for i, row := range rows {
		kv := k.EvalWithGrad(x, row, grad)
		_, dp := phiDeriv(k.r2(x, row))
		if math.Float64bits(dst[i]) != math.Float64bits(kv) || math.Float64bits(dphi[i]) != math.Float64bits(dp) {
			t.Fatalf("row %d: EvalRowRadial %v, %v; per-pair %v, %v", i, dst[i], dphi[i], kv, dp)
		}
	}
}

// radialSpecials are the r² values the radial oracle places in every
// lane of a block: zero, subnormals, tiny values, both sides of t = 708
// (r² = 708²/5 = 100252.8), infinities, NaN, huge values and a negative
// one (whose t is NaN).
var radialSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-300, 1e-20, 1e-9,
	math.Nextafter(100252.8, 0), 100252.8, math.Nextafter(100252.8, math.Inf(1)), 100000, 100300,
	math.Inf(1), math.NaN(), 1e300, math.MaxFloat64, -1,
	8.793055720104473 * 8.793055720104473 / 5,
}

// checkRadialRows runs radialRows on r2, with and without dφ, and
// reports every row whose value or derivative differs in any bit from
// phiDeriv scaled as EvalRowRadial scales it. It skips the test where
// the probe or the self-check has left the radial pass off.
func checkRadialRows(t *testing.T, r2 []float64, v float64) int {
	t.Helper()
	if !radialVector {
		t.Skip("the radial pass is off")
	}
	dst := append([]float64(nil), r2...)
	dphi := make([]float64, len(r2))
	radialRows(dst, dphi, v)
	vals := append([]float64(nil), r2...)
	radialRows(vals, nil, v)
	bad := 0
	for i, s := range r2 {
		p, d := phiDeriv(s)
		want := v * p
		if math.Float64bits(dst[i]) != math.Float64bits(want) ||
			math.Float64bits(vals[i]) != math.Float64bits(want) ||
			math.Float64bits(dphi[i]) != math.Float64bits(d) {
			if bad < 5 {
				t.Errorf("r²=%v (row %d of %d): value %v/%v, dφ %v; phiDeriv %v, %v",
					s, i, len(r2), dst[i], vals[i], dphi[i], want, d)
			}
			bad++
		}
	}
	return bad
}

// TestRadialRowsMatchPhiDeriv is the radial pass's oracle: every special
// r² in every lane of a block and in the tail, then a log-uniform sweep
// of 200,000 r² over t from 1e-6 to beyond 708, each row bit-identical to
// phiDeriv — vector blocks, declined blocks and tails alike.
func TestRadialRowsMatchPhiDeriv(t *testing.T) {
	stream := rng.New(23, 9)
	bad, checked := 0, 0
	for _, s := range radialSpecials {
		for n := 1; n <= 9; n++ {
			for lane := 0; lane < n; lane++ {
				r2 := make([]float64, n)
				for i := range r2 {
					r2[i] = 3 * stream.Float64()
				}
				r2[lane] = s
				bad += checkRadialRows(t, r2, 1.7)
				checked += n
			}
		}
	}
	r2 := make([]float64, 200000)
	for i := range r2 {
		tt := math.Exp(math.Log(1e-6) + stream.Float64()*(math.Log(720)-math.Log(1e-6)))
		r2[i] = tt * tt / 5
	}
	bad += checkRadialRows(t, r2, 0.6)
	checked += len(r2)
	if bad != 0 {
		t.Fatalf("%d of %d rows differ from phiDeriv", bad, checked)
	}
	t.Logf("%d rows checked, 0 mismatches", checked)
}

// FuzzRadial feeds five arbitrary r² (a block of four and a tail of one)
// through radialRows and holds every row to phiDeriv's bits.
func FuzzRadial(f *testing.F) {
	f.Add(0.0, 1.0, 2.5, 100252.8, 1e-300)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		if bad := checkRadialRows(t, []float64{a, b, c, d, e}, 1.3); bad != 0 {
			t.Fatalf("%d of 5 rows differ from phiDeriv", bad)
		}
	})
}

// checkR2Rows runs r2Vec on n rows of d values and counts the rows whose
// r² differs in any bit from the per-pair r2 with the same inverse
// lengthscales (with anyNaN, two NaNs match whatever their payloads); it
// fails the test where r2Vec's report is not d%4 == 0.
func checkR2Rows(t *testing.T, label string, k *Matern52, x, xs []float64, anyNaN bool) int {
	t.Helper()
	d := k.Dim()
	n := len(xs) / d
	got := make([]float64, n+1)[1:]
	if ran := r2Vec(got, x, xs, k.invLen); ran != (d%4 == 0) {
		t.Fatalf("%s: r2Vec ran %v on d=%d", label, ran, d)
	} else if !ran {
		return 0
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = k.r2(x, xs[i*d:(i+1)*d])
	}
	return bitsDiffer(t, label, got, want, anyNaN)
}

// TestR2RowsMatchGoLoop is the four-row r² pass's oracle: over
// d ∈ {1…13, 24} (the pass takes the multiples of four and declines the
// rest), 0–67 rows, misaligned operands, and points and inverse
// lengthscales laced with signed zeros, subnormals, infinities and NaNs,
// every row's r² has the scalar loop's bits, NaN payloads included.
func TestR2RowsMatchGoLoop(t *testing.T) {
	stream := rng.New(83, 2)
	bad, checked := 0, 0
	for _, d := range oracleDims {
		for n := 0; n <= 67; n++ {
			special := []int{0, 9, 3}[n%3]
			k := oracleKernel(stream, d, []int{0, 0, 4}[n%3])
			x := oracleVec(stream, d, n%4, special)
			xs := oracleVec(stream, n*d, 3-n%4, special)
			bad += checkR2Rows(t, fmt.Sprintf("d %d n %d", d, n), k, x, xs, false)
			checked += n
		}
	}
	if bad != 0 {
		t.Fatalf("%d of %d rows differ from the scalar loop", bad, checked)
	}
	t.Logf("%d rows checked, 0 mismatches", checked)
}

// FuzzR2Rows drives the r² oracle with byte-derived operands: the first
// byte picks d (1–13 or 24), the second the row count (0–67) and a
// misalignment; the rest fills the inverse lengthscales, the point and
// the rows. Two NaNs match whatever their payloads (see bitsDiffer).
func FuzzR2Rows(f *testing.F) {
	f.Add([]byte{11, 9, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0x40, 0x09, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 10 {
			return
		}
		d := oracleDims[int(data[0])%len(oracleDims)]
		n, off := int(data[1])%68, int(data[1])>>6
		value := fuzzValues(data[2:])
		k := NewMatern52(d)
		for i := range k.invLen {
			k.invLen[i] = value()
		}
		x, xs := fuzzVec(value, d, off), fuzzVec(value, n*d, 3-off)
		if bad := checkR2Rows(t, "fuzz", k, x, xs, true); bad != 0 {
			t.Fatalf("%d of %d rows differ from the scalar loop", bad, n)
		}
	})
}
