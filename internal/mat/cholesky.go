package mat

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/fp"
	"repro/internal/parallel"
)

// ErrNotPositiveDefinite is returned when a matrix cannot be factorized even
// after the maximum jitter has been added to its diagonal.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// packedLen is the number of float64s a packed lower triangle of order n
// holds: n·(n+1)/2.
func packedLen(n int) int { return n * (n + 1) / 2 }

// colOffset is the start of packed column k of a factor of order n:
// k·n − k·(k−1)/2. Column k holds the n−k entries L[k..n)[k].
func colOffset(k, n int) int { return k*n - k*(k-1)/2 }

// Cholesky holds a lower-triangular Cholesky factor L with A = L·Lᵀ in
// packed column-major storage: column k occupies
// l[colOffset(k,n) : colOffset(k+1,n)] and holds L[k..n)[k]. A factor
// therefore costs n·(n+1)/2 floats instead of the n² a dense triangle
// wastes half of, and every kernel — factorization, both triangular
// solves, the inverse and the extension — streams whole columns
// contiguously. The factor owns its storage; the input matrix is never
// modified. Solves only read the factor, so any number of goroutines may
// solve against one factor at once.
type Cholesky struct {
	n      int
	l      []float64 // packed lower triangle, column-major
	jitter float64   // diagonal jitter that was added to achieve factorization
}

// NewCholesky factorizes the symmetric positive-definite matrix a. Only the
// lower triangle of a is read. If the factorization fails, exponentially
// increasing jitter (starting at startJitter, up to maxJitter) is added to
// the diagonal; the jitter actually used is recorded and queryable via
// Jitter. startJitter <= 0 selects a default relative to the mean diagonal.
// A NaN or ±Inf on the diagonal fails at once with ErrNotPositiveDefinite.
func NewCholesky(a *Dense, startJitter, maxJitter float64) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Refactorize(a, startJitter, maxJitter); err != nil {
		return nil, err
	}
	return c, nil
}

// Refactorize runs NewCholesky's factorization into this factor's existing
// storage (growing it on a size change). It lets a pooled fit workspace
// reuse one Cholesky across many hyperparameter evaluations instead of
// allocating n²/2 floats per objective call. Factors extended from this
// one own their storage and are unaffected. Not safe to call concurrently
// with solves on the same factor.
func (c *Cholesky) Refactorize(a *Dense, startJitter, maxJitter float64) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: cholesky of non-square %d×%d", a.rows, a.cols))
	}
	n := a.rows
	// A non-finite diagonal never factorizes, and it would make the
	// default jitter bounds NaN or +Inf, which the escalation below never
	// passes.
	var meanDiag float64
	for i := 0; i < n; i++ {
		d := a.At(i, i)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return ErrNotPositiveDefinite
		}
		meanDiag += d
	}
	if startJitter <= 0 {
		if n > 0 {
			meanDiag /= float64(n)
		}
		startJitter = 1e-10 * math.Max(meanDiag, 1)
	}
	if maxJitter <= 0 {
		maxJitter = startJitter * 1e8
	}
	c.n = n
	if cap(c.l) < packedLen(n) {
		c.l = make([]float64, packedLen(n))
	}
	c.l = c.l[:packedLen(n)]
	jitter := 0.0
	for {
		if c.factorize(a, jitter) {
			c.jitter = jitter
			return nil
		}
		if fp.Zero(jitter) {
			jitter = startJitter
		} else {
			jitter *= 100 // escalate fast: every retry is a full O(n³) pass
		}
		if jitter > maxJitter {
			return ErrNotPositiveDefinite
		}
	}
}

// factorize attempts a Cholesky of a + jitter·I into the packed columns of
// c.l, returning false on a non-positive pivot. It is the left-looking
// column form: column j starts as column j of a's lower triangle with the
// jitter on its diagonal, receives −L[i][k]·L[j][k] from each finished
// column k < j in increasing k, and ends with the root of its pivot and
// the divisions by it. Per entry that is the textbook operation DAG
// (increasing k, division or root last), so the pivots — and with them
// the first failing one and the jitter escalation — are those of the
// row-by-row form. Every packed entry is written, so no zeroing pass is
// needed.
func (c *Cholesky) factorize(a *Dense, jitter float64) bool {
	n := c.n
	l := c.l
	ad := a.data
	for j := 0; j < n; j++ {
		m := n - j
		col := l[colOffset(j, n):colOffset(j+1, n)]
		for i := range col {
			col[i] = ad[(j+i)*n+j]
		}
		col[0] += jitter
		// off is the packed index of L[j][k], where finished column k's
		// last m entries L[j..n)[k] start; column k+1's start one column
		// length n−k−1 later.
		k, off := 0, j
		// Four finished columns per sweep, the updates still landing in
		// increasing k: the AVX2 body where subMul4Vec takes it, else the
		// Go loop.
		for ; k+4 <= j; k += 4 {
			o1 := off + n - k - 1
			o2 := o1 + n - k - 2
			o3 := o2 + n - k - 3
			c0, c1, c2, c3 := l[off:off+m], l[o1:o1+m], l[o2:o2+m], l[o3:o3+m]
			if !subMul4Vec(col, c0, c1, c2, c3, c0[0], c1[0], c2[0], c3[0]) {
				subMul4Go(col, c0, c1, c2, c3, c0[0], c1[0], c2[0], c3[0])
			}
			off = o3 + n - k - 4
		}
		for ; k < j; k++ {
			ck := l[off : off+m]
			lk := ck[0]
			ck = ck[:len(col)]
			for i := range col {
				col[i] -= ck[i] * lk
			}
			off += n - k - 1
		}
		d := col[0]
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		d = math.Sqrt(d)
		col[0] = d
		for i := 1; i < len(col); i++ {
			col[i] /= d
		}
	}
	return true
}

// Size returns the order of the factorized matrix.
func (c *Cholesky) Size() int { return c.n }

// Jitter returns the diagonal jitter that was added during factorization.
func (c *Cholesky) Jitter() float64 { return c.jitter }

// L materializes the lower-triangular factor as a freshly allocated dense
// matrix with a zero strict upper triangle. The factor's own storage is
// packed, so the result does not alias it and may be modified freely.
func (c *Cholesky) L() *Dense {
	n := c.n
	d := NewDense(n, n, nil)
	for k := 0; k < n; k++ {
		for i, v := range c.l[colOffset(k, n):colOffset(k+1, n)] {
			d.data[(k+i)*n+k] = v
		}
	}
	return d
}

// FactorBytes reports the float64 storage this factor owns in bytes: the
// packed lower triangle.
func (c *Cholesky) FactorBytes() int { return len(c.l) * 8 }

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l[colOffset(i, c.n)])
	}
	return 2 * s
}

// SolveVec solves A·x = b and returns x in a fresh vector.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	return c.SolveVecInto(make([]float64, len(b)), b)
}

// SolveVecInto solves A·x = b into dst (length n) and returns dst. dst may
// alias b; b itself is left untouched otherwise.
func (c *Cholesky) SolveVecInto(dst, b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: cholesky solve length %d != %d", len(b), c.n))
	}
	if len(dst) != c.n {
		panic(fmt.Sprintf("mat: cholesky solve dst length %d != %d", len(dst), c.n))
	}
	copy(dst, b)
	c.forwardSolve(dst, 0)
	c.backSolve(dst)
	return dst
}

// ForwardSolveVec solves L·y = b in a fresh vector.
func (c *Cholesky) ForwardSolveVec(b []float64) []float64 {
	return c.ForwardSolveVecInto(make([]float64, len(b)), b)
}

// ForwardSolveVecInto solves L·y = b into dst (length n) and returns dst.
// dst may alias b.
func (c *Cholesky) ForwardSolveVecInto(dst, b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: cholesky forward solve length %d != %d", len(b), c.n))
	}
	if len(dst) != c.n {
		panic(fmt.Sprintf("mat: cholesky forward solve dst length %d != %d", len(dst), c.n))
	}
	copy(dst, b)
	c.forwardSolve(dst, 0)
	return dst
}

// BackSolveVec solves Lᵀ·x = b in a fresh vector.
func (c *Cholesky) BackSolveVec(b []float64) []float64 {
	return c.BackSolveVecInto(make([]float64, len(b)), b)
}

// BackSolveVecInto solves Lᵀ·x = b into dst (length n) and returns dst.
// dst may alias b.
func (c *Cholesky) BackSolveVecInto(dst, b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: cholesky back solve length %d != %d", len(b), c.n))
	}
	if len(dst) != c.n {
		panic(fmt.Sprintf("mat: cholesky back solve dst length %d != %d", len(dst), c.n))
	}
	copy(dst, b)
	c.backSolve(dst)
	return dst
}

// forwardSolve and backSolve sit at the bottom of every posterior
// prediction, so both are right-looking: once an entry is final, its
// products with the factor are subtracted from every entry still open,
// four final entries per sweep, and the inner loop carries no dependency
// chain, so it runs at memory and instruction throughput instead of
// FP-subtract latency. Each entry still takes its subtractions one at a
// time in a fixed order, then divides, as the bitwise reproducibility
// contract requires (the golden-trace and paper-digest tests).

// forwardSolve solves the trailing system L[from:,from:]·y[from:] =
// y[from:] in place; y[:from] is neither read nor written. It uses the
// right-looking (axpy) form of forward substitution: once y[k] is final it
// is scattered down packed column k into every later element. Each y[i]
// still accumulates −L[i][k]·y[k] in strictly increasing k with the
// division at the same point, so the operation DAG — and therefore every
// output bit — is identical to the textbook dot-product form.
func (c *Cholesky) forwardSolve(y []float64, from int) {
	n := c.n
	l := c.l
	y = y[:n]
	k := from
	// Four columns per sweep (subMul4Vec, else subMul4Go): each tail
	// element is loaded and stored once for all four updates. The
	// subtractions land in increasing-k order, exactly as a
	// column-at-a-time sweep would apply them; only the memory traffic is
	// batched, not the arithmetic.
	for ; k+4 <= n; k += 4 {
		off0 := colOffset(k, n)
		off1 := off0 + (n - k)
		off2 := off1 + (n - k - 1)
		off3 := off2 + (n - k - 2)
		// Solve the 4×4 triangular corner sequentially.
		yk0 := y[k] / l[off0]
		y[k] = yk0
		yk1 := (y[k+1] - l[off0+1]*yk0) / l[off1]
		y[k+1] = yk1
		yk2 := ((y[k+2] - l[off0+2]*yk0) - l[off1+1]*yk1) / l[off2]
		y[k+2] = yk2
		yk3 := (((y[k+3] - l[off0+3]*yk0) - l[off1+2]*yk1) - l[off2+1]*yk2) / l[off3]
		y[k+3] = yk3
		tail, c0, c1, c2, c3 := y[k+4:], l[off0+4:off1], l[off1+3:off2], l[off2+2:off3], l[off3+1:off3+n-k-3]
		if !subMul4Vec(tail, c0, c1, c2, c3, yk0, yk1, yk2, yk3) {
			subMul4Go(tail, c0, c1, c2, c3, yk0, yk1, yk2, yk3)
		}
	}
	for ; k < n; k++ {
		off := colOffset(k, n)
		yk := y[k] / l[off]
		y[k] = yk
		col := l[off+1 : off+n-k]
		tail := y[k+1:]
		tail = tail[:len(col)]
		for i, ck := range col {
			tail[i] -= ck * yk
		}
	}
}

// backSolve solves Lᵀ·x = y in place by the right-looking form of back
// substitution: for k = n−1 down to 0, x[k] = y[k] / L[k][k], then
// y[i] −= L[k][i]·x[k] for every i < k. Each x[i] therefore subtracts its
// terms in decreasing k, then divides by its pivot. L[k][i] sits at
// offset k−i of packed column i, so the four entries L[k−3..k][i] a
// four-row sweep needs are adjacent there, and column i+1's four start
// n−i−1 after column i's.
func (c *Cholesky) backSolve(y []float64) {
	n := c.n
	l := c.l
	y = y[:n]
	k := n - 1
	// Four rows per sweep (backSweepVec, else backSweepGo): the 4×4
	// corner of rows k−3..k is solved in the order x[k], x[k−1], x[k−2],
	// x[k−3], then every earlier entry subtracts the four in that order.
	// The first n mod 4 rows go one at a time below.
	for ; k >= 3; k -= 4 {
		o3 := colOffset(k-3, n)
		o2 := o3 + n - k + 3
		o1 := o2 + n - k + 2
		o0 := o1 + n - k + 1
		x0 := y[k] / l[o0]
		y[k] = x0
		x1 := (y[k-1] - l[o1+1]*x0) / l[o1]
		y[k-1] = x1
		x2 := ((y[k-2] - l[o2+2]*x0) - l[o2+1]*x1) / l[o2]
		y[k-2] = x2
		x3 := (((y[k-3] - l[o3+3]*x0) - l[o3+2]*x1) - l[o3+1]*x2) / l[o3]
		y[k-3] = x3
		if !backSweepVec(y[:k-3], l, n, x0, x1, x2, x3) {
			backSweepGo(y[:k-3], l, n, x0, x1, x2, x3)
		}
	}
	for ; k >= 0; k-- {
		xk := y[k] / l[colOffset(k, n)]
		y[k] = xk
		for i, o := 0, k; i < k; i++ {
			y[i] -= l[o] * xk
			o += n - i - 1
		}
	}
}

// Inverse returns A⁻¹ explicitly via the triangular inverse
// A⁻¹ = L⁻ᵀ·L⁻¹. This is an O(n³) operation (roughly 3× cheaper than
// solving against the identity); prefer the solve methods when only
// products with A⁻¹ are needed, and InverseInto when scratch can be
// reused.
func (c *Cholesky) Inverse() *Dense {
	n := c.n
	return c.InverseInto(NewDense(n, n, nil), NewDense(n, n, nil))
}

// invParallelN is the factor order at or above which InverseInto splits
// its two phases over deterministic row bands (invRowBand rows each) via
// parallel.ForEachBand, on the caller plus whatever helpers the
// process-wide budget lends. Unlike the banded LML gradient there is no
// reduction to reassociate here: every wt row is a self-contained
// triangular solve and every inv cell a single dot product, so the
// banded result is bitwise-identical to the serial one at every n and
// every GOMAXPROCS — the threshold only avoids dispatch overhead on
// small factors. A package variable (not a const) so tests can force the
// banded branch onto small fixtures.
var invParallelN = 512

// invRowBand is the row-band width of the parallel inverse split.
const invRowBand = 64

// InverseInto computes A⁻¹ into inv, using wt as scratch for L⁻ᵀ; both
// must be n×n, and inv is returned. Every cell either matrix contributes
// is overwritten before it is read, so neither needs to be zeroed —
// pooled fit workspaces hand in dirty scratch. The arithmetic is
// identical to Inverse; above invParallelN both phases run over parallel
// row bands with bitwise-identical results (TestInverseIntoParallelBitIdentity).
// Where the AVX2 product runs, wt is transposed in place between the
// phases (invTransposeVec), so that afterwards it holds L⁻¹ in its lower
// triangle rather than L⁻ᵀ in its upper one.
func (c *Cholesky) InverseInto(inv, wt *Dense) *Dense {
	n := c.n
	if inv.rows != n || inv.cols != n {
		panic(fmt.Sprintf("mat: cholesky inverse dst %d×%d != %d", inv.rows, inv.cols, n))
	}
	if wt.rows != n || wt.cols != n {
		panic(fmt.Sprintf("mat: cholesky inverse scratch %d×%d != %d", wt.rows, wt.cols, n))
	}
	if n >= invParallelN {
		if err := parallel.ForEachBand(context.Background(), 0, n, invRowBand, func(lo, hi int) {
			c.invTransposeRows(wt, lo, hi)
		}); err != nil {
			panic(err) // unreachable: the background context is never cancelled
		}
		vec := invTransposeVec(wt)
		if err := parallel.ForEachBand(context.Background(), 0, n, invRowBand, func(lo, hi int) {
			c.invProduct(inv, wt, vec, lo, hi)
		}); err != nil {
			panic(err) // unreachable: the background context is never cancelled
		}
	} else {
		c.invTransposeRows(wt, 0, n)
		c.invProduct(inv, wt, invTransposeVec(wt), 0, n)
	}
	return inv
}

// invProduct runs the product phase over rows [lo, hi): the AVX2 body
// where invTransposeVec transposed wt (vec), else invProductRows.
func (c *Cholesky) invProduct(inv, wt *Dense, vec bool, lo, hi int) {
	if vec {
		invProductVec(inv, wt, lo, hi)
		return
	}
	c.invProductRows(inv, wt, lo, hi)
}

// invTransposeRows fills rows [lo, hi) of wt with L⁻ᵀ: row i of wt is
// column i of L⁻¹, the solution of L·x = e_i, kept contiguous so both
// phases stream memory linearly. x[:i] is zero and never read, so each
// row solves only its trailing system, starting from a tail of zeros —
// which is why dirty scratch is harmless. Each row reads only the factor
// and its own entries, so rows split freely across bands.
func (c *Cholesky) invTransposeRows(wt *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		wrow := wt.Row(i)
		wrow[i] = 1
		clear(wrow[i+1:])
		c.forwardSolve(wrow, i)
	}
}

// invProductRows fills the symmetric product for rows i in [lo, hi):
//
//	A⁻¹[i][j] = Σ_{k>=max(i,j)} L⁻¹[k][i]·L⁻¹[k][j]
//	          = dot(wt.Row(i)[i:], wt.Row(j)[i:]) for j <= i.
//
// Cells (i, j…j+3) are built together, four independent accumulator
// chains over one pass of row i, so the loop runs at FP-add throughput
// rather than latency. Each chain still sums its own cell in increasing
// k, so every cell has the bits of a one-cell-at-a-time dot product.
//
// Band (lo, hi) owns every (i, j≤i) pair with i in range, including the
// mirror cell inv[j][i]: each memory cell is written by exactly one
// band, so bands race on nothing and the filled matrix is independent of
// the partition.
func (c *Cholesky) invProductRows(inv, wt *Dense, lo, hi int) {
	n := c.n
	for i := lo; i < hi; i++ {
		wi := wt.Row(i)[i:n]
		j := 0
		for ; j+4 <= i+1; j += 4 {
			w0 := wt.Row(j)[i:n]
			w1 := wt.Row(j + 1)[i:n]
			w2 := wt.Row(j + 2)[i:n]
			w3 := wt.Row(j + 3)[i:n]
			w0, w1, w2, w3 = w0[:len(wi)], w1[:len(wi)], w2[:len(wi)], w3[:len(wi)]
			var s0, s1, s2, s3 float64
			for k, v := range wi {
				s0 += v * w0[k]
				s1 += v * w1[k]
				s2 += v * w2[k]
				s3 += v * w3[k]
			}
			row := inv.data[i*n : i*n+n]
			row[j], row[j+1], row[j+2], row[j+3] = s0, s1, s2, s3
			inv.data[j*n+i] = s0
			inv.data[(j+1)*n+i] = s1
			inv.data[(j+2)*n+i] = s2
			inv.data[(j+3)*n+i] = s3
		}
		for ; j <= i; j++ {
			wj := wt.Row(j)[i:n]
			wj = wj[:len(wi)]
			var s float64
			for k, v := range wi {
				s += v * wj[k]
			}
			inv.data[i*n+j] = s
			inv.data[j*n+i] = s
		}
	}
}

// ExtendCols returns a new Cholesky of the (n+m)×(n+m) matrix
//
//	[ A   B ]
//	[ Bᵀ  C ]
//
// given the factor of A, the n×m cross block B as a flat column-major
// slice — column j of B occupies bcols[j*n : (j+1)*n] — and the m×m block
// C. It costs O(n²m + m³) instead of O((n+m)³), which makes
// Kriging-Believer fantasy updates cheap: the k★ vector of a fantasy
// point is exactly one such column. The same jitter escalation as
// NewCholesky is applied to the new diagonal block if needed. bcols is
// left unmodified.
func (c *Cholesky) ExtendCols(bcols []float64, cc *Dense) (*Cholesky, error) {
	n, m := c.n, cc.rows
	if cc.cols != m {
		panic(fmt.Sprintf("mat: extend C block %d×%d not square", cc.rows, cc.cols))
	}
	if len(bcols) != n*m {
		panic(fmt.Sprintf("mat: extend column block length %d != n %d × m %d", len(bcols), n, m))
	}
	// Off-diagonal block W = L⁻¹B: row j of w is column j of B, solved in
	// place.
	w := NewDense(m, n, nil)
	copy(w.data, bcols)
	for j := 0; j < m; j++ {
		c.forwardSolve(w.Row(j), 0)
	}
	// Schur complement S = C − W·Wᵀ, factorized into the new corner.
	s := NewDense(m, m, nil)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			v := cc.At(i, j) - Dot(w.Row(i), w.Row(j))
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	sc, err := NewCholesky(s, 0, 0)
	if err != nil {
		return nil, err
	}
	nm := n + m
	out := &Cholesky{n: nm, l: make([]float64, packedLen(nm)), jitter: math.Max(c.jitter, sc.jitter)}
	// Column k < n is the parent's column k followed by its m new entries
	// W[0..m)[k].
	for k := 0; k < n; k++ {
		col := out.l[colOffset(k, nm):colOffset(k+1, nm)]
		copy(col, c.l[colOffset(k, n):colOffset(k+1, n)])
		ext := col[n-k:]
		for j := range ext {
			ext[j] = w.data[j*n+k]
		}
	}
	// The last m columns are the corner factor's packed columns, in order.
	copy(out.l[colOffset(n, nm):], sc.l)
	return out, nil
}

// CholeskyFromLower wraps an explicitly supplied lower-triangular factor
// L as the Cholesky of A = L·Lᵀ, skipping the O(n³) factorization. The
// strict upper triangle of l is ignored; every diagonal entry must be
// strictly positive and finite, or ErrNotPositiveDefinite is returned.
// Intended for factors restored from storage and for constructing large
// synthetic models in tests and benchmarks.
func CholeskyFromLower(l *Dense) (*Cholesky, error) {
	if l.rows != l.cols {
		panic(fmt.Sprintf("mat: cholesky factor of non-square %d×%d", l.rows, l.cols))
	}
	n := l.rows
	c := &Cholesky{n: n, l: make([]float64, packedLen(n))}
	for k := 0; k < n; k++ {
		col := c.l[colOffset(k, n):colOffset(k+1, n)]
		for i := range col {
			col[i] = l.data[(k+i)*n+k]
		}
		if d := col[0]; !(d > 0) || math.IsInf(d, 1) {
			return nil, ErrNotPositiveDefinite
		}
	}
	return c, nil
}
