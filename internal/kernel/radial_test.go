package kernel

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestEvalRowRadialPaperSize checks the row fills at the paper's shape,
// d = 12 and n = 184 rows, against per-pair Eval and GradX.
func TestEvalRowRadialPaperSize(t *testing.T) {
	const d, n = 12, 184
	stream := rng.New(5, 12)
	rows, flat := rowBlock(stream, n, d)
	x := randPoint(stream, d)
	k := NewMatern52(d)
	p := k.Params(nil)
	for i := range p {
		p[i] = 0.3 * stream.Norm()
	}
	k.SetParams(p)
	vals := make([]float64, n)
	k.EvalRow(vals, x, flat)
	dst, dphi := make([]float64, n), make([]float64, n)
	k.EvalRowRadial(dst, dphi, x, flat)
	grow := make([]float64, n*d)
	k.GradXRows(grow, dphi, x, flat)
	gref := make([]float64, d)
	for i, row := range rows {
		want := k.Eval(x, row)
		if math.Float64bits(vals[i]) != math.Float64bits(want) || math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: EvalRow %v, EvalRowRadial %v, Eval %v", i, vals[i], dst[i], want)
		}
		k.GradX(x, row, gref)
		for j, g := range gref {
			if math.Float64bits(grow[i*d+j]) != math.Float64bits(g) {
				t.Fatalf("row %d dim %d: GradXRows %v, GradX %v", i, j, grow[i*d+j], g)
			}
		}
	}
}
