package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean != 2.5 {
		t.Fatalf("mean = %v", s.Mean)
	}
	// Sample variance of 1..4 is 5/3.
	if math.Abs(s.SD-math.Sqrt(5.0/3.0)) > 1e-12 {
		t.Fatalf("sd = %v", s.SD)
	}
	if s.Median != 2.5 {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.SD != 0 || s.Median != 7 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestMedianOdd(t *testing.T) {
	if m := Summarize([]float64{9, 1, 5}).Median; m != 5 {
		t.Fatalf("median = %v", m)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(2,2) = x²(3−2x).
	for _, x := range []float64{0.1, 0.4, 0.7} {
		want := x * x * (3 - 2*x)
		if got := RegIncBeta(2, 2, x); math.Abs(got-want) > 1e-12 {
			t.Fatalf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	if got := RegIncBeta(2.5, 1.5, 0.3) + RegIncBeta(1.5, 2.5, 0.7); math.Abs(got-1) > 1e-12 {
		t.Fatalf("symmetry violated: %v", got)
	}
}

func TestRegIncBetaMonotone(t *testing.T) {
	f := func(a, b uint8) bool {
		aa := 0.5 + float64(a%40)/4
		bb := 0.5 + float64(b%40)/4
		prev := -1.0
		for x := 0.0; x <= 1.0001; x += 0.05 {
			v := RegIncBeta(aa, bb, math.Min(x, 1))
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Student t CDF reference values: for df=10, t=2.228 is the 97.5th
// percentile, so the two-sided p-value is 0.05.
func TestTTwoSidedPReference(t *testing.T) {
	if p := tTwoSidedP(2.228, 10); math.Abs(p-0.05) > 1e-3 {
		t.Fatalf("p(2.228, df=10) = %v, want 0.05", p)
	}
	if p := tTwoSidedP(1.96, 1e6); math.Abs(p-0.05) > 1e-3 {
		t.Fatalf("p(1.96, df=1e6) = %v, want ≈0.05 (normal limit)", p)
	}
	if p := tTwoSidedP(0, 5); p != 1 {
		t.Fatalf("p(0) = %v", p)
	}
}

func TestPooledTTestIdenticalSamples(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	res, err := PooledTTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 0 || res.P != 1 {
		t.Fatalf("identical samples: %+v", res)
	}
}

func TestPooledTTestClearDifference(t *testing.T) {
	a := []float64{10.1, 10.2, 9.9, 10.0, 10.1}
	b := []float64{0.1, 0.2, -0.1, 0.0, -0.2}
	res, err := PooledTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Fatalf("p = %v for clearly different samples", res.P)
	}
	if res.T <= 0 {
		t.Fatalf("t = %v, expected positive (a > b)", res.T)
	}
}

func TestPooledTTestMatchesKnownExample(t *testing.T) {
	// Hand-checked example: a = {1,2,3,4,5}, b = {2,3,4,5,6}:
	// means 3 and 4, pooled sd = sqrt(2.5), se = sqrt(2.5·(2/5)) = 1,
	// t = −1, df = 8.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 3, 4, 5, 6}
	res, err := PooledTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.T+1) > 1e-12 || res.DF != 8 {
		t.Fatalf("t = %v, df = %v", res.T, res.DF)
	}
	// p-value for |t|=1, df=8 ≈ 0.3466.
	if math.Abs(res.P-0.3466) > 1e-3 {
		t.Fatalf("p = %v", res.P)
	}
}

func TestTTestTooFewSamples(t *testing.T) {
	if _, err := PooledTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := PooledTTest([]float64{1, 2}, []float64{3}); err == nil {
		t.Fatal("expected error")
	}
}

func TestConstantDifferentSamples(t *testing.T) {
	res, err := PooledTTest([]float64{1, 1, 1}, []float64{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 {
		t.Fatalf("constant distinct samples: p = %v", res.P)
	}
}

func TestPairwisePValues(t *testing.T) {
	stream := rng.New(1, 1)
	mk := func(mean float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = mean + stream.Norm()
		}
		return out
	}
	samples := map[string][]float64{
		"A": mk(0),
		"B": mk(0.1),
		"C": mk(10),
	}
	order := []string{"A", "B", "C"}
	m, err := PairwisePValues(samples, order)
	if err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if m[i][i] != 1 {
			t.Fatal("diagonal must be 1")
		}
		for j := range order {
			if m[i][j] != m[j][i] {
				t.Fatal("matrix must be symmetric")
			}
			if m[i][j] < 0 || m[i][j] > 1 {
				t.Fatalf("p out of range: %v", m[i][j])
			}
		}
	}
	if m[0][2] > 0.001 {
		t.Fatalf("A vs C p = %v, expected tiny", m[0][2])
	}
	if m[0][1] < 0.05 {
		t.Fatalf("A vs B p = %v, expected large", m[0][1])
	}
	if _, err := PairwisePValues(samples, []string{"A", "missing"}); err == nil {
		t.Fatal("expected error for missing sample")
	}
}

// Property: pooled p-values lie in [0,1] and the test is symmetric in its
// arguments.
func TestPooledSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		stream := rng.New(seed, 3)
		n := 3 + int(seed%8)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = stream.Norm()
			b[i] = 0.5 + 2*stream.Norm()
		}
		r1, err1 := PooledTTest(a, b)
		r2, err2 := PooledTTest(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.P >= 0 && r1.P <= 1 && math.Abs(r1.P-r2.P) < 1e-12 && math.Abs(r1.T+r2.T) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
