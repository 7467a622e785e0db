package optim

import (
	"math"
	"sort"

	"repro/internal/mat"
	"repro/internal/rng"
)

// RandomSearch minimizes f by uniform sampling — the paper's §4 reference
// ("even considering a large random sample of almost 12,000 objective
// function evaluations…").
type RandomSearch struct {
	// Evals is the evaluation budget (default 1000).
	Evals int
}

// Minimize draws Evals uniform points from [lo, hi] and returns the best.
func (o *RandomSearch) Minimize(f Objective, lo, hi []float64, stream *rng.Stream) Result {
	budget := o.Evals
	if budget <= 0 {
		budget = 1000
	}
	best := Result{F: math.Inf(1)}
	for i := 0; i < budget; i++ {
		x := stream.UniformVec(lo, hi)
		if fx := f(x); fx < best.F {
			best.X, best.F = x, fx
		}
	}
	best.Evals = budget
	best.Iters = budget
	best.Converged = true
	best.StopReason = "evaluation budget exhausted"
	return best
}

// GA is a real-coded genetic algorithm with tournament selection, blend
// (BLX-α) crossover, Gaussian mutation and elitism — one of the classical
// metaheuristics the paper cites for cheap-model UPHES scheduling. Each
// gene mutates with probability 1/d.
type GA struct {
	// Pop is the population size (default 40).
	Pop int
	// Generations bounds the number of generations (default 50).
	Generations int
	// Evals optionally bounds total evaluations; when > 0 it preempts
	// Generations.
	Evals int
}

// The GA's operator settings.
const (
	gaTournamentK   = 3   // tournament size
	gaCrossoverP    = 0.9 // crossover probability
	gaMutationScale = 0.1 // mutation standard deviation, as a fraction of the box width
	gaElite         = 2   // elites copied unchanged
)

type gaIndividual struct {
	x []float64
	f float64
}

// Minimize evolves a population within [lo, hi] and returns the best found.
func (o *GA) Minimize(f Objective, lo, hi []float64, stream *rng.Stream) Result {
	d := len(lo)
	pop := o.Pop
	if pop <= 0 {
		pop = 40
	}
	gens := o.Generations
	if gens <= 0 {
		gens = 50
	}
	mutp := 1 / float64(d)
	elite := min(gaElite, pop)

	evals := 0
	budgetLeft := func() bool { return o.Evals <= 0 || evals < o.Evals }
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}

	cur := make([]gaIndividual, pop)
	for i := range cur {
		x := stream.UniformVec(lo, hi)
		cur[i] = gaIndividual{x: x, f: eval(x)}
	}
	sortPop := func(p []gaIndividual) {
		sort.Slice(p, func(a, b int) bool { return p[a].f < p[b].f })
	}
	sortPop(cur)

	tournament := func() gaIndividual {
		best := cur[stream.IntN(pop)]
		for i := 1; i < gaTournamentK; i++ {
			c := cur[stream.IntN(pop)]
			if c.f < best.f {
				best = c
			}
		}
		return best
	}

	gen := 0
	for ; gen < gens && budgetLeft(); gen++ {
		next := make([]gaIndividual, 0, pop)
		for i := 0; i < elite; i++ {
			next = append(next, gaIndividual{x: mat.CloneVec(cur[i].x), f: cur[i].f})
		}
		for len(next) < pop && budgetLeft() {
			p1, p2 := tournament(), tournament()
			child := mat.CloneVec(p1.x)
			if stream.Float64() < gaCrossoverP {
				// BLX-0.5 blend crossover.
				const blx = 0.5
				for j := 0; j < d; j++ {
					a, b := p1.x[j], p2.x[j]
					if a > b {
						a, b = b, a
					}
					span := b - a
					child[j] = stream.Uniform(a-blx*span, b+blx*span+1e-300)
				}
			}
			for j := 0; j < d; j++ {
				if stream.Float64() < mutp {
					child[j] += gaMutationScale * (hi[j] - lo[j]) * stream.Norm()
				}
			}
			clampToBox(child, lo, hi)
			next = append(next, gaIndividual{x: child, f: eval(child)})
		}
		if len(next) < pop {
			next = append(next, cur[len(next):]...)
		}
		cur = next
		sortPop(cur)
	}
	return Result{
		X:          mat.CloneVec(cur[0].x),
		F:          cur[0].f,
		Iters:      gen,
		Evals:      evals,
		Converged:  true,
		StopReason: "generation/evaluation budget exhausted",
	}
}

// PSO is a global-best particle swarm optimizer with inertia weight and
// velocity clamping — the other classical metaheuristic baseline.
type PSO struct {
	// Particles is the swarm size (default 30).
	Particles int
	// Iterations bounds the number of swarm updates (default 60).
	Iterations int
	// Evals optionally bounds total evaluations; when > 0 it preempts
	// Iterations.
	Evals int
}

// The swarm's update coefficients.
const (
	psoInertia   = 0.72 // velocity inertia weight
	psoCognitive = 1.49 // attraction to the particle's own best
	psoSocial    = 1.49 // attraction to the swarm's best
	psoVMaxFrac  = 0.2  // velocity clamp, as a fraction of the box width
)

// Minimize runs the swarm within [lo, hi] and returns the best found.
func (o *PSO) Minimize(f Objective, lo, hi []float64, stream *rng.Stream) Result {
	d := len(lo)
	np := o.Particles
	if np <= 0 {
		np = 30
	}
	iters := o.Iterations
	if iters <= 0 {
		iters = 60
	}

	evals := 0
	budgetLeft := func() bool { return o.Evals <= 0 || evals < o.Evals }
	eval := func(x []float64) float64 {
		evals++
		return f(x)
	}

	x := make([][]float64, np)
	v := make([][]float64, np)
	pbest := make([][]float64, np)
	pbestF := make([]float64, np)
	gbest := make([]float64, d)
	gbestF := math.Inf(1)
	vmax := make([]float64, d)
	for j := 0; j < d; j++ {
		vmax[j] = psoVMaxFrac * (hi[j] - lo[j])
	}
	for i := 0; i < np; i++ {
		x[i] = stream.UniformVec(lo, hi)
		v[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			v[i][j] = stream.Uniform(-vmax[j], vmax[j])
		}
		pbest[i] = mat.CloneVec(x[i])
		pbestF[i] = eval(x[i])
		if pbestF[i] < gbestF {
			gbestF = pbestF[i]
			copy(gbest, x[i])
		}
	}

	it := 0
	for ; it < iters && budgetLeft(); it++ {
		for i := 0; i < np && budgetLeft(); i++ {
			for j := 0; j < d; j++ {
				r1, r2 := stream.Float64(), stream.Float64()
				v[i][j] = psoInertia*v[i][j] + psoCognitive*r1*(pbest[i][j]-x[i][j]) + psoSocial*r2*(gbest[j]-x[i][j])
				if v[i][j] > vmax[j] {
					v[i][j] = vmax[j]
				} else if v[i][j] < -vmax[j] {
					v[i][j] = -vmax[j]
				}
				x[i][j] += v[i][j]
			}
			clampToBox(x[i], lo, hi)
			fx := eval(x[i])
			if fx < pbestF[i] {
				pbestF[i] = fx
				copy(pbest[i], x[i])
				if fx < gbestF {
					gbestF = fx
					copy(gbest, x[i])
				}
			}
		}
	}
	return Result{
		X:          mat.CloneVec(gbest),
		F:          gbestF,
		Iters:      it,
		Evals:      evals,
		Converged:  true,
		StopReason: "iteration/evaluation budget exhausted",
	}
}
