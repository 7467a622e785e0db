package mat

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4, nil)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("dims = %d×%d, want 3×4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseBacking(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := NewDense(2, 3, d)
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("row-major layout broken: %v", m)
	}
}

func TestNewDenseBadBacking(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong backing length")
		}
	}()
	NewDense(2, 3, []float64{1, 2})
}

func TestSetAtAdd(t *testing.T) {
	m := NewDense(2, 2, nil)
	m.Set(1, 0, 5)
	m.Add(1, 0, 2.5)
	if got := m.At(1, 0); got != 7.5 {
		t.Fatalf("At(1,0) = %v, want 7.5", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2, nil)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
		func() { m.Row(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for out-of-range access")
				}
			}()
			f()
		}()
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("identity(%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDense(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := [][]float64{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("mul(%d,%d) = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	src := rng.New(1, 2)
	a := randomDense(src, 5, 5)
	c := Mul(a, Identity(5))
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if c.At(i, j) != a.At(i, j) {
				t.Fatal("A·I != A")
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MulVec(a, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("mulvec = %v, want [-2 -2]", got)
	}
}

func TestMulVecT(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MulVecT(a, []float64{1, -1})
	want := []float64{-3, -3, -3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mulvecT = %v, want %v", got, want)
		}
	}
}

func TestTranspose(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := a.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose dims %d×%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if tr.At(j, i) != a.At(i, j) {
				t.Fatal("transpose mismatch")
			}
		}
	}
}

func TestDotNormAxpy(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("norm2 wrong")
	}
	if Norm2(nil) != 0 {
		t.Fatal("norm2 of empty should be 0")
	}
	y := []float64{1, 1}
	AxpyVec(2, []float64{1, -1}, y)
	if y[0] != 3 || y[1] != -1 {
		t.Fatalf("axpy = %v", y)
	}
}

func TestNorm2Overflow(t *testing.T) {
	big := math.MaxFloat64 / 4
	got := Norm2([]float64{big, big})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("norm2 overflowed: %v", got)
	}
	if !almostEq(got, big*math.Sqrt2, 1e-12) {
		t.Fatalf("norm2 = %v, want %v", got, big*math.Sqrt2)
	}
}

func TestTraceAndTraceMul(t *testing.T) {
	src := rng.New(3, 4)
	a := randomDense(src, 4, 6)
	b := randomDense(src, 6, 4)
	direct := Mul(a, b).Trace()
	if !almostEq(TraceMul(a, b), direct, 1e-12) {
		t.Fatalf("traceMul = %v, want %v", TraceMul(a, b), direct)
	}
}

func TestSymOuterUpdate(t *testing.T) {
	m := NewDense(2, 2, nil)
	m.SymOuterUpdate(2, []float64{1, 3})
	if m.At(0, 0) != 2 || m.At(0, 1) != 6 || m.At(1, 0) != 6 || m.At(1, 1) != 18 {
		t.Fatalf("symOuterUpdate = %v", m)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 3, 4})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestScaleAddScaled(t *testing.T) {
	a := NewDense(1, 3, []float64{1, 2, 3})
	b := NewDense(1, 3, []float64{10, 20, 30})
	a.Scale(2)
	a.AddScaled(0.5, b)
	want := []float64{7, 14, 21}
	for i, v := range want {
		if a.At(0, i) != v {
			t.Fatalf("a = %v, want %v", a.Row(0), want)
		}
	}
}

func TestMaxAbs(t *testing.T) {
	a := NewDense(2, 2, []float64{1, -7, 3, 4})
	if a.MaxAbs() != 7 {
		t.Fatalf("maxAbs = %v", a.MaxAbs())
	}
	if NewDense(0, 0, nil).MaxAbs() != 0 {
		t.Fatal("maxAbs of empty should be 0")
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random matrices.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed, seed^0x9e3779b9)
		r := 1 + int(src.Uint64()%6)
		k := 1 + int(src.Uint64()%6)
		c := 1 + int(src.Uint64()%6)
		a := randomDense(src, r, k)
		b := randomDense(src, k, c)
		lhs := Mul(a, b).T()
		rhs := Mul(b.T(), a.T())
		for i := 0; i < lhs.Rows(); i++ {
			for j := 0; j < lhs.Cols(); j++ {
				if !almostEq(lhs.At(i, j), rhs.At(i, j), 1e-12) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: MulVec is linear: A(αx+βy) = αAx + βAy.
func TestMulVecLinearity(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed, 17)
		r := 1 + int(src.Uint64()%5)
		c := 1 + int(src.Uint64()%5)
		a := randomDense(src, r, c)
		x := randomVec(src, c)
		y := randomVec(src, c)
		alpha, beta := src.Norm(), src.Norm()
		z := make([]float64, c)
		for i := range z {
			z[i] = alpha*x[i] + beta*y[i]
		}
		lhs := MulVec(a, z)
		ax, ay := MulVec(a, x), MulVec(a, y)
		for i := range lhs {
			if !almostEq(lhs[i], alpha*ax[i]+beta*ay[i], 1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomDense(src *rng.Stream, r, c int) *Dense {
	m := NewDense(r, c, nil)
	for i := range m.data {
		m.data[i] = src.Norm()
	}
	return m
}

func randomVec(src *rng.Stream, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = src.Norm()
	}
	return v
}

func BenchmarkMul64(b *testing.B) {
	src := rng.New(1, 1)
	a := randomDense(src, 64, 64)
	c := randomDense(src, 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(a, c)
	}
}
