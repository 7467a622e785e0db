package mat

import (
	"math"
	"testing"

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
	if got := m.At(1, 0); got != 5 {
		t.Fatalf("At(1,0) = %v, want 5", got)
	}
	if got := m.At(0, 1); got != 0 {
		t.Fatalf("At(0,1) = %v, want 0", got)
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
	a.Scale(2)
	want := []float64{2, 4, 6}
	for i, v := range want {
		if a.At(0, i) != v {
			t.Fatalf("a = %v, want %v", a.Row(0), want)
		}
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
