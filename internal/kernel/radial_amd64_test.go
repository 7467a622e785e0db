//go:build amd64 && !purego

package kernel

import (
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
