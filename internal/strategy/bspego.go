package strategy

import (
	"context"
	"sort"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/surrogate"
)

// BSPEGO is Binary Space Partitioning EGO (Gobert et al., 2020): the
// design space is kept partitioned into n_cand = OverSample·q sub-regions;
// each cycle a *local* acquisition (single-point EI on the global model)
// runs independently — and in parallel — inside every sub-region, the
// resulting candidates are ranked by infill value and the top q are
// evaluated. The partition then evolves: the sub-region holding the best
// candidate is split, and the least promising sibling pair is merged, so
// the partition always covers the whole domain with a constant number of
// leaves. Diversification is imposed early (leaves everywhere), while
// intensification emerges as promising regions are split ever finer.
type BSPEGO struct {
	// Opt configures each per-leaf EI optimization. Fewer starts than the
	// global APs: leaves are small.
	Opt AFOpt
	// OverSample is n_cand/n_batch (default 2, as in the paper).
	OverSample int

	root   *bspNode
	leaves []*bspNode
}

// NewBSPEGO returns the paper's configuration (n_cand = 2·n_batch).
func NewBSPEGO() *BSPEGO {
	return &BSPEGO{Opt: AFOpt{Starts: 2, MaxIter: 30}, OverSample: 2}
}

// Name implements core.Strategy.
func (s *BSPEGO) Name() string { return "BSP-EGO" }

// Reset implements core.Strategy.
func (s *BSPEGO) Reset() { s.root, s.leaves = nil, nil }

// Observe implements core.Strategy (partition evolution happens in
// Propose, where the per-leaf scores are available).
func (s *BSPEGO) Observe(*core.State, [][]float64, []float64) {}

type bspNode struct {
	lo, hi      []float64
	parent      *bspNode
	left, right *bspNode
	// score is the best acquisition value found inside the leaf this
	// cycle; bestX the corresponding candidate.
	score float64
	bestX []float64
}

func (n *bspNode) isLeaf() bool { return n.left == nil }

// split bisects the node's longest (normalized) side.
func (n *bspNode) split(plo, phi []float64) {
	d := len(n.lo)
	axis, width := 0, 0.0
	for j := 0; j < d; j++ {
		w := (n.hi[j] - n.lo[j]) / (phi[j] - plo[j])
		if w > width {
			axis, width = j, w
		}
	}
	mid := 0.5 * (n.lo[axis] + n.hi[axis])
	l := &bspNode{lo: mat.CloneVec(n.lo), hi: mat.CloneVec(n.hi), parent: n}
	r := &bspNode{lo: mat.CloneVec(n.lo), hi: mat.CloneVec(n.hi), parent: n}
	l.hi[axis] = mid
	r.lo[axis] = mid
	n.left, n.right = l, r
}

// merge collapses a node whose two children are leaves back into a leaf.
func (n *bspNode) merge() { n.left, n.right = nil, nil }

// initPartition builds an initial balanced partition with nLeaves leaves.
func (s *BSPEGO) initPartition(lo, hi []float64, nLeaves int) {
	s.root = &bspNode{lo: mat.CloneVec(lo), hi: mat.CloneVec(hi)}
	queue := []*bspNode{s.root}
	count := 1
	for count < nLeaves {
		n := queue[0]
		queue = queue[1:]
		n.split(lo, hi)
		queue = append(queue, n.left, n.right)
		count++
	}
	s.refreshLeaves()
}

func (s *BSPEGO) refreshLeaves() {
	s.leaves = s.leaves[:0]
	var walk func(n *bspNode)
	walk = func(n *bspNode) {
		if n.isLeaf() {
			s.leaves = append(s.leaves, n)
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(s.root)
}

// Propose implements core.Strategy.
func (s *BSPEGO) Propose(ctx context.Context, model surrogate.Surrogate, st *core.State, q int, stream *rng.Stream) ([][]float64, error) {
	p := st.Problem
	over := s.OverSample
	if over < 1 {
		over = 2
	}
	nCand := over * q
	if s.root == nil || len(s.leaves) != nCand {
		s.initPartition(p.Lo, p.Hi, nCand)
	}

	// Local acquisition in every leaf, in parallel: a single-point EI on
	// the global model restricted to the leaf's box. This is the
	// parallel-AP property that gives BSP-EGO its scalability (Fig. 2).
	// The leaves run through parallel.Compute, on the caller plus whatever
	// helpers the process-wide budget lends, and each leaf's multi-start
	// nests under the same budget.
	// Streams are split serially before the parallel region — Split
	// advances the parent stream's state, so calling it from worker
	// goroutines would be both a data race and a replay hazard.
	streams := make([]*rng.Stream, len(s.leaves))
	for i := range streams {
		streams[i] = stream.Split(uint64(i))
	}
	if err := parallel.Compute(ctx, 0, len(s.leaves), func(i int) {
		leaf := s.leaves[i]
		ei := &acq.EI{Best: st.BestY, Minimize: p.Minimize}
		x, v := s.Opt.Maximize(ctx, model, ei, leaf.lo, leaf.hi, nil, streams[i])
		leaf.bestX, leaf.score = x, v
	}); err != nil {
		// Cancelled mid-sweep: some leaves carry no candidate, so the
		// ranking below would be meaningless. The engine stops the run.
		return nil, err
	}

	// Rank candidates by infill value and keep the top q.
	order := make([]int, len(s.leaves))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return s.leaves[order[a]].score > s.leaves[order[b]].score
	})
	batch := make([][]float64, 0, q)
	for _, idx := range order[:q] {
		batch = append(batch, mat.CloneVec(s.leaves[idx].bestX))
	}

	// Evolve the partition: split the winning leaf, merge the weakest
	// sibling pair, keeping the leaf count constant.
	winner := s.leaves[order[0]]
	winner.split(p.Lo, p.Hi)
	s.mergeWeakest(winner)
	s.refreshLeaves()
	return batch, nil
}

// mergeWeakest merges the sibling leaf pair with the lowest combined score,
// excluding the node just split (whose fresh children carry no scores).
func (s *BSPEGO) mergeWeakest(exclude *bspNode) {
	var candidates []*bspNode
	var walk func(n *bspNode)
	walk = func(n *bspNode) {
		if n.isLeaf() {
			return
		}
		if n.left.isLeaf() && n.right.isLeaf() && n != exclude {
			candidates = append(candidates, n)
		}
		walk(n.left)
		walk(n.right)
	}
	walk(s.root)
	if len(candidates) == 0 {
		return // degenerate comb-shaped tree: skip the merge this cycle
	}
	worst := candidates[0]
	worstScore := pairScore(worst)
	for _, c := range candidates[1:] {
		if sc := pairScore(c); sc < worstScore {
			worst, worstScore = c, sc
		}
	}
	worst.merge()
}

func pairScore(n *bspNode) float64 {
	a, b := n.left.score, n.right.score
	if a > b {
		return a
	}
	return b
}

// APParallelism implements core.Strategy: every sub-region's acquisition
// runs independently, so the AP parallelizes over all OverSample·q leaves
// (the paper assigns two sub-regions per computing core).
func (s *BSPEGO) APParallelism(q int) int {
	over := s.OverSample
	if over < 1 {
		over = 2
	}
	return over * q
}
