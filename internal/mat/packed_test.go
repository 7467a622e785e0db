package mat

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// This file pins the packed column-major factor to dense reference
// implementations: in-test dense re-implementations of factorize, the two
// triangular solves, Inverse and the extension evaluate the exact
// floating-point operation DAG of each packed kernel — the dense code's,
// except the back solve, whose reference is the right-looking loop — and
// every packed result must match them bit for bit on random SPD inputs.
// The packed layout is allowed to change addresses, never arithmetic.

// denseRefFactor is the pre-packed textbook factorization of a + jitter·I
// into a dense lower triangle.
func denseRefFactor(t *testing.T, a *Dense, jitter float64) *Dense {
	t.Helper()
	n := a.rows
	l := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		lrow := l.Row(i)
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			if i == j {
				sum += jitter
			}
			ljrow := l.Row(j)
			for k := 0; k < j; k++ {
				sum -= lrow[k] * ljrow[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					t.Fatalf("dense reference factorization failed at pivot %d", i)
				}
				lrow[j] = math.Sqrt(sum)
			} else {
				lrow[j] = sum / ljrow[j]
			}
		}
	}
	return l
}

// denseRefForward is the pre-packed direct forward solve on a dense lower
// triangle; denseRefBack is the right-looking back solve, in the order
// the packed kernel runs it: for k = n−1 down to 0, x[k] = y[k]/L[k][k],
// then y[i] −= L[k][i]·x[k] for every i < k.
func denseRefForward(l *Dense, y []float64) {
	n := l.rows
	for i := 0; i < n; i++ {
		row := l.Row(i)
		s := y[i]
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
}

func denseRefBack(l *Dense, y []float64) {
	n := l.rows
	for k := n - 1; k >= 0; k-- {
		y[k] /= l.At(k, k)
		for i := 0; i < k; i++ {
			y[i] -= l.At(k, i) * y[k]
		}
	}
}

// denseRefInverse is the pre-packed two-phase triangular inverse.
func denseRefInverse(l *Dense) *Dense {
	n := l.rows
	wt := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		wrow := wt.Row(i)
		wrow[i] = 1 / l.At(i, i)
		for k := i + 1; k < n; k++ {
			lrow := l.Row(k)[:k]
			var s float64
			for j := i; j < k; j++ {
				s -= lrow[j] * wrow[j]
			}
			wrow[k] = s / l.At(k, k)
		}
	}
	inv := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		wi := wt.Row(i)
		for j := 0; j <= i; j++ {
			wj := wt.Row(j)
			var s float64
			for k := i; k < n; k++ {
				s += wi[k] * wj[k]
			}
			inv.data[i*n+j] = s
			inv.data[j*n+i] = s
		}
	}
	return inv
}

func vecBitsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestPackedFactorizeMatchesDense: packed factorization reproduces the
// dense reference bit for bit across sizes, including the odd sizes that
// exercise every remainder path of the blocked kernels.
func TestPackedFactorizeMatchesDense(t *testing.T) {
	src := rng.New(31, 7)
	for _, n := range []int{1, 2, 3, 5, 8, 17, 33, 64, 101} {
		a := randomSPD(src, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("n=%d: NewCholesky: %v", n, err)
		}
		ref := denseRefFactor(t, a, c.Jitter())
		bitsEqual(t, c.L(), ref, "packed vs dense factor")
		// LogDet reads packed pivots; cross-check against dense pivots.
		var want float64
		for i := 0; i < n; i++ {
			want += math.Log(ref.At(i, i))
		}
		want *= 2
		if math.Float64bits(c.LogDet()) != math.Float64bits(want) {
			t.Fatalf("n=%d: LogDet = %v, want %v", n, c.LogDet(), want)
		}
	}
}

// TestPackedSolvesMatchDense: the forward, back and full solves on the
// packed column-major factor must match the dense reference kernels
// bitwise. This is the bit-identity argument for the layout: per element,
// updates arrive in the reference's order (increasing k forward,
// decreasing k back) with the division at the same point, so storage and
// the four-row blocking cannot touch the result.
func TestPackedSolvesMatchDense(t *testing.T) {
	src := rng.New(41, 9)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 30, 65, 129} {
		a := randomSPD(src, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("n=%d: NewCholesky: %v", n, err)
		}
		ref := denseRefFactor(t, a, c.Jitter())
		b := randomVec(src, n)

		want := append([]float64(nil), b...)
		denseRefForward(ref, want)
		vecBitsEqual(t, c.ForwardSolveVec(b), want, "forward solve")

		wantBack := append([]float64(nil), b...)
		denseRefBack(ref, wantBack)
		vecBitsEqual(t, c.BackSolveVec(b), wantBack, "back solve")

		denseRefBack(ref, want)
		vecBitsEqual(t, c.SolveVec(b), want, "full solve")
	}
}

// TestPackedSolveMatAndInverseMatchDense: solving a multi-column
// right-hand side one column at a time, and the two-phase triangular
// inverse on packed columns, must match the dense references bitwise,
// and InverseInto must be indifferent to dirty scratch.
func TestPackedSolveMatAndInverseMatchDense(t *testing.T) {
	src := rng.New(51, 3)
	const n, m = 23, 4
	a := randomSPD(src, n)
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	ref := denseRefFactor(t, a, c.Jitter())

	b := randomDense(src, n, m)
	got, want := NewDense(n, m, nil), NewDense(n, m, nil)
	col := make([]float64, n)
	for j := 0; j < m; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		x := c.SolveVec(col)
		denseRefForward(ref, col)
		denseRefBack(ref, col)
		for i := 0; i < n; i++ {
			got.Set(i, j, x[i])
			want.Set(i, j, col[i])
		}
	}
	bitsEqual(t, got, want, "column solves vs dense reference")

	wantInv := denseRefInverse(ref)
	bitsEqual(t, c.Inverse(), wantInv, "Inverse vs dense reference")

	inv := NewDense(n, n, nil)
	wt := NewDense(n, n, nil)
	for i := range inv.data {
		inv.data[i] = math.NaN()
		wt.data[i] = math.Inf(1)
	}
	bitsEqual(t, c.InverseInto(inv, wt), wantInv, "InverseInto with dirty scratch")
}

// TestPackedExtendMatchesDenseReference: the extension on the packed
// layout must reproduce the dense reference extension — parent copy,
// per-column forward solves, Schur complement, corner factorization — bit
// for bit.
func TestPackedExtendMatchesDenseReference(t *testing.T) {
	src := rng.New(61, 13)
	const n, m = 27, 3
	a := randomSPD(src, n)
	b := randomDense(src, n, m)
	cc := spdBlock(src, m, float64(n))

	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	ref := denseRefFactor(t, a, c.Jitter())

	// Dense reference extension.
	w := NewDense(m, n, nil)
	for j := 0; j < m; j++ {
		row := w.Row(j)
		for i := 0; i < n; i++ {
			row[i] = b.At(i, j)
		}
		denseRefForward(ref, row)
	}
	s := NewDense(m, m, nil)
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			v := cc.At(i, j) - Dot(w.Row(i), w.Row(j))
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	scPacked, err := NewCholesky(s, 0, 0)
	if err != nil {
		t.Fatalf("corner factor: %v", err)
	}
	sc := denseRefFactor(t, s, scPacked.Jitter())
	want := NewDense(n+m, n+m, nil)
	for i := 0; i < n; i++ {
		copy(want.Row(i)[:i+1], ref.Row(i)[:i+1])
	}
	for j := 0; j < m; j++ {
		copy(want.Row(n + j)[:n], w.Row(j))
		copy(want.Row(n + j)[n:n+j+1], sc.Row(j)[:j+1])
	}

	ext, err := c.ExtendCols(colMajor(b), cc)
	if err != nil {
		t.Fatalf("ExtendCols: %v", err)
	}
	bitsEqual(t, ext.L(), want, "packed extension vs dense reference")
}

// TestExtendChainSolvesMatchDense: down a three-link extension chain
// (m = 1, 2, 1 new columns per link) every link's forward, back and full
// solves must match the dense reference kernels run on the link's own
// L(), bit for bit — an extended factor is an ordinary factor, with no
// state inherited from its parent.
func TestExtendChainSolvesMatchDense(t *testing.T) {
	src := rng.New(71, 17)
	const n = 33
	cur, err := NewCholesky(randomSPD(src, n), 0, 0)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	for link := 0; link < 3; link++ {
		m := 1 + link%2
		next, err := cur.ExtendCols(colMajor(randomDense(src, cur.Size(), m)), spdBlock(src, m, float64(n)))
		if err != nil {
			t.Fatalf("link %d: ExtendCols: %v", link, err)
		}
		ref := next.L()
		rhs := randomVec(src, next.Size())

		want := append([]float64(nil), rhs...)
		denseRefForward(ref, want)
		vecBitsEqual(t, next.ForwardSolveVec(rhs), want, "chain ForwardSolveVec")

		wantBack := append([]float64(nil), rhs...)
		denseRefBack(ref, wantBack)
		vecBitsEqual(t, next.BackSolveVec(rhs), wantBack, "chain BackSolveVec")

		denseRefBack(ref, want)
		vecBitsEqual(t, next.SolveVec(rhs), want, "chain SolveVec")
		cur = next
	}
}

// TestRefactorizeMatchesNew: recycling a factor through Refactorize must
// be indistinguishable — bits, jitter, size, footprint — from a fresh
// NewCholesky across size changes, and must not disturb a factor extended
// from an earlier life.
func TestRefactorizeMatchesNew(t *testing.T) {
	src := rng.New(81, 19)
	c := &Cholesky{}
	var child *Cholesky
	var childA *Dense
	for round, n := range []int{12, 29, 29, 8} {
		a := randomSPD(src, n)
		if err := c.Refactorize(a, 0, 0); err != nil {
			t.Fatalf("round %d: Refactorize: %v", round, err)
		}
		fresh, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("round %d: NewCholesky: %v", round, err)
		}
		if c.Jitter() != fresh.Jitter() || c.Size() != fresh.Size() {
			t.Fatalf("round %d: jitter/size mismatch", round)
		}
		if got, want := c.FactorBytes(), packedLen(n)*8; got != want {
			t.Fatalf("round %d: FactorBytes = %d, want %d", round, got, want)
		}
		bitsEqual(t, c.L(), fresh.L(), "Refactorize vs NewCholesky")
		b := randomVec(src, n)
		vecBitsEqual(t, c.SolveVec(b), fresh.SolveVec(b), "recycled solve")

		if round == 1 {
			child, err = c.ExtendCols(colMajor(randomDense(src, n, 1)), spdBlock(src, 1, float64(n)))
			if err != nil {
				t.Fatalf("ExtendCols: %v", err)
			}
			lc := child.L()
			childA = mul(lc, transpose(lc))
		}
	}
	// The child still solves correctly against its own matrix.
	rhs := randomVec(src, child.Size())
	x := child.SolveVec(rhs)
	back := make([]float64, len(rhs))
	for i := 0; i < child.Size(); i++ {
		back[i] = Dot(childA.Row(i), x)
	}
	for i := range rhs {
		if math.Abs(back[i]-rhs[i]) > 1e-8 {
			t.Fatalf("child solve after parent recycle: A·x[%d] = %v, want %v", i, back[i], rhs[i])
		}
	}
}

// TestInverseIntoParallelBitIdentity forces InverseInto down its banded
// branch on a small factor and checks it reproduces the serial branch
// byte for byte at GOMAXPROCS 1 and 8. Unlike the banded LML gradient
// there is no reduction here — every wt row and every inv cell is
// computed independently — so banded and serial must agree at every n,
// not just across worker counts.
func TestInverseIntoParallelBitIdentity(t *testing.T) {
	src := rng.New(97, 17)
	for _, n := range []int{1, 5, 63, 64, 70, 129} {
		a := randomSPD(src, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("n=%d: NewCholesky: %v", n, err)
		}
		want := c.Inverse() // serial: n < invParallelN

		old := invParallelN
		invParallelN = 1
		for _, procs := range []int{1, 8} {
			oldProcs := runtime.GOMAXPROCS(procs)
			inv := NewDense(n, n, nil)
			wt := NewDense(n, n, nil)
			for i := range inv.data {
				inv.data[i] = math.NaN()
				wt.data[i] = math.Inf(1)
			}
			got := c.InverseInto(inv, wt)
			runtime.GOMAXPROCS(oldProcs)
			bitsEqual(t, got, want, "banded InverseInto vs serial")
		}
		invParallelN = old
	}
}

// perCellInverse is the product phase of the inverse one cell at a time:
// each A⁻¹[i][j], j ≤ i, is a single dot product of wt rows i and j over
// k ≥ i in increasing k, mirrored into [j][i]. It is the reference the
// four-chain invProductRows must reproduce bit for bit.
func perCellInverse(wt *Dense) *Dense {
	n := wt.rows
	inv := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		wi := wt.Row(i)
		for j := 0; j <= i; j++ {
			wj := wt.Row(j)
			var s float64
			for k := i; k < n; k++ {
				s += wi[k] * wj[k]
			}
			inv.data[i*n+j] = s
			inv.data[j*n+i] = s
		}
	}
	return inv
}

// TestInverseProductMatchesPerCell: InverseInto's product phase, which
// builds four cells of a row at once, gives every cell the bits of the
// one-cell-at-a-time dot product, at every remainder of i+1 mod 4
// (n = 1…9), at the bands' edge (64) and the paper day's n (184), on the
// serial branch and on the banded one at GOMAXPROCS 1 and 2.
func TestInverseProductMatchesPerCell(t *testing.T) {
	src := rng.New(61, 5)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 184} {
		a := randomSPD(src, n)
		c, err := NewCholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("n=%d: NewCholesky: %v", n, err)
		}
		wt := NewDense(n, n, nil)
		c.invTransposeRows(wt, 0, n)
		want := perCellInverse(wt)
		bitsEqual(t, c.Inverse(), want, "serial InverseInto vs per-cell product")

		old := invParallelN
		invParallelN = 1
		for _, procs := range []int{1, 2} {
			oldProcs := runtime.GOMAXPROCS(procs)
			inv := NewDense(n, n, nil)
			scratch := NewDense(n, n, nil)
			for i := range inv.data {
				inv.data[i] = math.NaN()
				scratch.data[i] = math.Inf(1)
			}
			got := c.InverseInto(inv, scratch)
			runtime.GOMAXPROCS(oldProcs)
			bitsEqual(t, got, want, "banded InverseInto vs per-cell product")
		}
		invParallelN = old
	}
}
