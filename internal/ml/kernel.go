package ml

import (
	"context"
	"math"

	"adwars/internal/fanout"
	"adwars/internal/features"
)

// RBF is the radial basis function kernel exp(-γ‖a−b‖²), the one kernel of
// every model the package trains, writes and loads. On binary vectors
// ‖a−b‖² = |a| + |b| − 2|a∩b|, so it is a function of the two samples'
// popcounts and their intersection size, and evaluation is a sorted-list
// merge.
type RBF struct {
	// Gamma is the kernel width parameter γ (> 0).
	Gamma float64
}

func (k RBF) evalCounts(popA, popB, inter int) float64 {
	dist := float64(popA + popB - 2*inter)
	return math.Exp(-k.Gamma * dist)
}

// gram is K(xᵢ,xⱼ) over a fixed sample set: the full n×n matrix, row-major,
// computed once (n²·8 bytes — 133 MB on the 4 081-sample headline corpus,
// the largest training set any binary builds). Every lookup is an array
// read, and a training run, its boosting rounds and its cross-validation
// folds all share one kernel evaluation per sample pair.
type gram struct {
	n    int
	full []float64
}

// newGram evaluates k on every pair of x, rows fanned out over the shared
// worker pool, one worker per core. Worker i writes row i's upper triangle
// and mirrors each value into column i — disjoint cells per worker, so the
// fill is deterministic at any core count. The kernel is evaluated from
// popcounts taken once per sample, so the inner loop is one sorted-merge
// IntersectionSize plus integer arithmetic per pair.
func newGram(k RBF, x []features.Sample) *gram {
	n := len(x)
	g := &gram{n: n, full: make([]float64, n*n)}
	pops := make([]int, n)
	for i, s := range x {
		pops[i] = s.Popcount()
	}
	eval := func(i, j int) float64 {
		return k.evalCounts(pops[i], pops[j], x[i].IntersectionSize(x[j]))
	}
	_ = fanout.ForEach(context.Background(), 0, n, func(i int) {
		g.full[i*n+i] = eval(i, i)
		for j := i + 1; j < n; j++ {
			v := eval(i, j)
			g.full[i*n+j] = v
			g.full[j*n+i] = v
		}
	})
	return g
}

// at returns K(xᵢ,xⱼ).
func (g *gram) at(i, j int) float64 { return g.full[i*g.n+j] }

// row returns the contiguous Gram row for sample i.
func (g *gram) row(i int) []float64 { return g.full[i*g.n : (i+1)*g.n] }

// subset returns the gram over x[idx[k]] for local indices k, gathered from
// the parent's values — the mechanism that lets cross-validation folds reuse
// one kernel evaluation per pair across the whole run.
func (g *gram) subset(idx []int) *gram {
	m := len(idx)
	sub := &gram{n: m, full: make([]float64, m*m)}
	for a, i := range idx {
		src := g.row(i)
		dst := sub.row(a)
		for b, j := range idx {
			dst[b] = src[j]
		}
	}
	return sub
}
