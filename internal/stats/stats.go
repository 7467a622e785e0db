// Package stats implements the statistics used by the paper's evaluation:
// min/mean/max/standard-deviation summaries (Tables 4–7), Student's
// t-tests with p-values computed via the regularized incomplete beta
// function, and pairwise p-value matrices (Figure 8).
package stats

import (
	"fmt"
	"math"

	"repro/internal/fp"
)

// Summary is the descriptive statistics block the paper reports per
// (algorithm, batch size) cell.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	SD       float64 // sample standard deviation (n−1)
	Median   float64
}

// Summarize computes descriptive statistics of xs. It panics on empty
// input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, v := range xs {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, v := range xs {
			ss += (v - s.Mean) * (v - s.Mean)
		}
		s.SD = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = median(xs)
	return s
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	// insertion sort: samples are tiny (10 replications)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return 0.5 * (c[n/2-1] + c[n/2])
}

// TTestResult reports a two-sample t-test.
type TTestResult struct {
	T  float64 // t statistic
	DF float64 // degrees of freedom
	P  float64 // two-sided p-value
}

// PooledTTest performs the classical equal-variance Student's t-test, as
// used in the paper's Figure 8.
func PooledTTest(a, b []float64) (TTestResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{}, fmt.Errorf("stats: need at least 2 samples per group (%d, %d)", len(a), len(b))
	}
	sa, sb := Summarize(a), Summarize(b)
	na, nb := float64(sa.N), float64(sb.N)
	df := na + nb - 2
	sp2 := ((na-1)*sa.SD*sa.SD + (nb-1)*sb.SD*sb.SD) / df
	se := math.Sqrt(sp2 * (1/na + 1/nb))
	if fp.Zero(se) {
		if fp.Exact(sa.Mean, sb.Mean) {
			return TTestResult{T: 0, DF: df, P: 1}, nil
		}
		return TTestResult{T: math.Inf(sign(sa.Mean - sb.Mean)), DF: df, P: 0}, nil
	}
	t := (sa.Mean - sb.Mean) / se
	return TTestResult{T: t, DF: df, P: tTwoSidedP(t, df)}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// tTwoSidedP returns the two-sided p-value of a t statistic with df
// degrees of freedom: P = I_{df/(df+t²)}(df/2, 1/2).
func tTwoSidedP(t, df float64) float64 {
	if math.IsInf(t, 0) {
		return 0
	}
	x := df / (df + t*t)
	return RegIncBeta(df/2, 0.5, x)
}

// PairwisePValues returns the symmetric matrix of two-sided pooled
// Student's t-test p-values for all pairs of named samples (Figure 8's
// heatmap, which uses that test). Diagonal entries are 1.
func PairwisePValues(samples map[string][]float64, order []string) ([][]float64, error) {
	n := len(order)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		out[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, oka := samples[order[i]]
			b, okb := samples[order[j]]
			if !oka || !okb {
				return nil, fmt.Errorf("stats: missing sample %q or %q", order[i], order[j])
			}
			res, err := PooledTTest(a, b)
			if err != nil {
				return nil, err
			}
			out[i][j] = res.P
			out[j][i] = res.P
		}
	}
	return out, nil
}

// --- special functions -------------------------------------------------------

// lgamma wraps math.Lgamma discarding the sign (arguments are positive
// here).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// via the continued-fraction expansion (Numerical Recipes betacf), valid
// for a, b > 0 and x in [0, 1].
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf is the continued fraction for the incomplete beta function.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
