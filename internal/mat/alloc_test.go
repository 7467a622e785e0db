package mat

import (
	"testing"

	"repro/internal/fp"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// TestSolveIntoAllocs pins the destination-passing triangular solves at
// zero allocations per call: these run inside gp.Predict and the
// acquisition inner loop, where any per-call garbage multiplies by the
// number of multistart iterations (DESIGN.md §9).
func TestSolveIntoAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	src := rng.New(21, 21)
	const n = 32
	a := randomSPD(src, n)
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = src.Norm()
	}
	dst := make([]float64, n)

	if got := testing.AllocsPerRun(100, func() {
		c.ForwardSolveVecInto(dst, b)
	}); got > 0 {
		t.Fatalf("ForwardSolveVecInto allocates %v times per call, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		c.BackSolveVecInto(dst, b)
	}); got > 0 {
		t.Fatalf("BackSolveVecInto allocates %v times per call, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		c.SolveVecInto(dst, b)
	}); got > 0 {
		t.Fatalf("SolveVecInto allocates %v times per call, want 0", got)
	}
}

// TestIntoVariantsMatchAllocating checks that every *Into variant is
// bitwise identical to its allocating wrapper — the wrappers are thin
// shims over the Into forms, so any drift here means the shim copied
// state it should not have.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	src := rng.New(23, 23)
	const n = 17
	a := randomSPD(src, n)
	c, err := NewCholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = src.Norm()
	}
	dst := make([]float64, n)

	checkSame := func(name string, want, got []float64) {
		t.Helper()
		for i := range want {
			if !fp.Exact(want[i], got[i]) {
				t.Fatalf("%s[%d] = %v, allocating variant gives %v", name, i, got[i], want[i])
			}
		}
	}
	checkSame("ForwardSolveVecInto", c.ForwardSolveVec(b), c.ForwardSolveVecInto(dst, b))
	checkSame("BackSolveVecInto", c.BackSolveVec(b), c.BackSolveVecInto(dst, b))
	checkSame("SolveVecInto", c.SolveVec(b), c.SolveVecInto(dst, b))

	// Aliased dst==b must also work for the solve family.
	alias := append([]float64(nil), b...)
	want := c.SolveVec(b)
	c.SolveVecInto(alias, alias)
	checkSame("SolveVecInto(aliased)", want, alias)
}
