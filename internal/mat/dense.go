// Package mat implements the dense linear algebra needed by Gaussian
// process regression: row-major matrices, vectors, Cholesky factorization
// with adaptive jitter, incremental Cholesky extension, and triangular
// solves. It is deliberately small — only what the BO stack requires — and
// depends on nothing outside the standard library and the internal/fp
// comparison helpers.
package mat

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/fp"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zeroed r×c matrix. If data is non-nil it is used as the
// backing slice (it must have length r*c).
func NewDense(r, c int, data []float64) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	if data == nil {
		data = make([]float64, r*c)
	} else if len(data) != r*c {
		panic(fmt.Sprintf("mat: backing slice length %d != %d×%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the backing slice (row-major).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// Scale multiplies every element by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: dot lengths %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled accumulation avoids overflow for large components.
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if fp.Zero(v) {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// AxpyVec computes y += s*x in place.
func AxpyVec(s float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: axpy lengths %d != %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += s * v
	}
}

// ScaleVec multiplies x by s in place.
func ScaleVec(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// SymOuterUpdate computes m += s * x xᵀ for square m.
func (m *Dense) SymOuterUpdate(s float64, x []float64) {
	if m.rows != m.cols || m.rows != len(x) {
		panic("mat: symOuterUpdate dimension mismatch")
	}
	for i, xi := range x {
		row := m.Row(i)
		sxi := s * xi
		for j, xj := range x {
			row[j] += sxi * xj
		}
	}
}

// String renders a small matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .5g", m.At(i, j))
			if j < m.cols-1 {
				b.WriteByte('\t')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
