package ml

import (
	"container/list"
	"context"
	"math"
	"runtime"
	"sync"

	"adwars/internal/crawler"
	"adwars/internal/features"
)

// Kernel computes a positive semi-definite similarity between two sparse
// binary samples.
type Kernel interface {
	Eval(a, b features.Sample) float64
}

// binaryKernel is implemented by kernels whose value depends only on the
// two samples' popcounts and intersection size — true for every kernel
// over binary vectors. The Gram builder uses it with per-sample popcounts
// cached at construction, so the inner loop never re-derives lengths.
type binaryKernel interface {
	evalCounts(popA, popB, inter int) float64
}

// RBF is the radial basis function kernel exp(-γ‖a−b‖²). On binary vectors
// ‖a−b‖² = |a| + |b| − 2|a∩b|, so evaluation is a sorted-list merge.
type RBF struct {
	// Gamma is the kernel width parameter γ (> 0).
	Gamma float64
}

// Eval implements Kernel.
func (k RBF) Eval(a, b features.Sample) float64 {
	return k.evalCounts(a.Popcount(), b.Popcount(), a.IntersectionSize(b))
}

func (k RBF) evalCounts(popA, popB, inter int) float64 {
	dist := float64(popA + popB - 2*inter)
	return math.Exp(-k.Gamma * dist)
}

// Linear is the dot-product kernel; on binary vectors it is |a∩b|. Used as
// an ablation baseline against RBF.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(a, b features.Sample) float64 {
	return float64(a.IntersectionSize(b))
}

func (Linear) evalCounts(_, _, inter int) float64 {
	return float64(inter)
}

// resolveKernel applies the package-wide default (the paper's RBF width)
// wherever a config leaves the kernel nil.
func resolveKernel(k Kernel) Kernel {
	if k == nil {
		return RBF{Gamma: 0.05}
	}
	return k
}

// DefaultKernelCache is the default Gram-entry budget: 16M float64 values
// (~128 MB), enough to hold the full matrix for training sets up to 4096
// samples — comfortably above the paper's ~1.1K-sample corpus.
const DefaultKernelCache = 16 << 20

// gram serves K(xᵢ,xⱼ) over a fixed sample set under one of three cache
// policies chosen from the entry budget:
//
//   - full: n² ≤ budget — the whole matrix is precomputed (rows fanned out
//     over the shared worker pool) and every lookup is an array read;
//   - rows: n² > budget ≥ n — an LRU of recently used rows;
//   - direct: budget < 0 (or < n) — every lookup re-evaluates the kernel,
//     the reference path differential tests compare against.
//
// Per-sample popcounts are cached at construction and drive the
// binaryKernel fast path, so the precompute inner loop is one sorted-merge
// IntersectionSize plus integer arithmetic per pair.
type gram struct {
	kernel Kernel
	bk     binaryKernel // non-nil fast path for binary kernels
	x      []features.Sample
	pops   []int32 // cached popcounts, pops[i] == x[i].Popcount()
	n      int
	full   []float64 // n×n row-major, nil unless the full policy applies
	rows   *rowCache // nil unless the row-LRU policy applies
}

// newGram builds the kernel cache for x. cacheEntries is the Gram-entry
// budget (0 = DefaultKernelCache, negative = no caching); workers caps the
// precompute fan-out (0 = GOMAXPROCS).
func newGram(kernel Kernel, x []features.Sample, cacheEntries, workers int) *gram {
	g := &gram{kernel: kernel, x: x, n: len(x)}
	g.bk, _ = kernel.(binaryKernel)
	g.pops = make([]int32, g.n)
	for i, s := range x {
		g.pops[i] = int32(s.Popcount())
	}
	if cacheEntries == 0 {
		cacheEntries = DefaultKernelCache
	}
	if cacheEntries < 0 || g.n == 0 {
		return g
	}
	if g.n <= cacheEntries/g.n {
		g.full = make([]float64, g.n*g.n)
		g.precompute(workers)
		return g
	}
	if rows := cacheEntries / g.n; rows >= 1 {
		g.rows = newRowCache(rows)
	}
	return g
}

// precompute fills the full matrix, fanning rows out over the shared
// worker pool. Worker i writes row i's upper triangle and mirrors each
// value into column i — disjoint cells per worker, so the fill is
// deterministic at any worker count.
func (g *gram) precompute(workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	_ = crawler.ForEach(context.Background(), workers, g.n, func(i int) {
		g.full[i*g.n+i] = g.evalPair(i, i)
		for j := i + 1; j < g.n; j++ {
			v := g.evalPair(i, j)
			g.full[i*g.n+j] = v
			g.full[j*g.n+i] = v
		}
	})
}

// evalPair evaluates the kernel on samples i, j using the cached popcounts
// when the kernel exposes the binary fast path.
func (g *gram) evalPair(i, j int) float64 {
	if g.bk != nil {
		return g.bk.evalCounts(int(g.pops[i]), int(g.pops[j]), g.x[i].IntersectionSize(g.x[j]))
	}
	return g.kernel.Eval(g.x[i], g.x[j])
}

// at returns K(xᵢ,xⱼ), from cache when possible.
func (g *gram) at(i, j int) float64 {
	if g.full != nil {
		return g.full[i*g.n+j]
	}
	if g.rows != nil {
		if r := g.rows.peek(i); r != nil {
			return r[j]
		}
		if r := g.rows.peek(j); r != nil {
			return r[i]
		}
	}
	return g.evalPair(i, j)
}

// row returns the contiguous Gram row for sample i, or nil under the
// direct policy (callers then fall back to per-element at()). Under the
// row-LRU policy a miss computes and caches the row; a row stays readable
// after the LRU evicts it — rows are never reused — so a caller may hold
// more rows than the cache does.
func (g *gram) row(i int) []float64 {
	if g.full != nil {
		return g.full[i*g.n : (i+1)*g.n]
	}
	return g.lruRow(i)
}

// lruRow is row off the full policy, kept apart so row inlines.
func (g *gram) lruRow(i int) []float64 {
	if g.rows == nil {
		return nil
	}
	if r := g.rows.get(i); r != nil {
		return r
	}
	r := make([]float64, g.n)
	for j := 0; j < g.n; j++ {
		r[j] = g.evalPair(i, j)
	}
	g.rows.put(i, r)
	return r
}

// subset returns a gram over x[idx[k]] for local indices k. When the
// parent holds a full matrix the subset gathers float copies of the cached
// values — the mechanism that lets cross-validation folds and AdaBoost
// rounds reuse one kernel evaluation per pair across the whole run —
// otherwise the subset re-derives its own policy from the same budget.
func (g *gram) subset(idx []int, cacheEntries, workers int) *gram {
	xs := make([]features.Sample, len(idx))
	for k, i := range idx {
		xs[k] = g.x[i]
	}
	if g.full == nil {
		return newGram(g.kernel, xs, cacheEntries, workers)
	}
	m := len(idx)
	sub := &gram{kernel: g.kernel, bk: g.bk, x: xs, n: m, pops: make([]int32, m)}
	for k, i := range idx {
		sub.pops[k] = g.pops[i]
	}
	sub.full = make([]float64, m*m)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	_ = crawler.ForEach(context.Background(), workers, m, func(a int) {
		src := g.full[idx[a]*g.n:]
		dst := sub.full[a*m : (a+1)*m]
		for b, i := range idx {
			dst[b] = src[i]
		}
	})
	return sub
}

// rowCache is a mutex-guarded LRU of Gram rows for training sets too large
// for a full matrix. Concurrent fold workers may race to compute the same
// row; both compute identical values, so the cache stays deterministic.
type rowCache struct {
	mu  sync.Mutex
	cap int
	m   map[int]*list.Element
	ll  *list.List // front = most recently used
}

type rowEntry struct {
	i   int
	row []float64
}

func newRowCache(capRows int) *rowCache {
	return &rowCache{cap: capRows, m: make(map[int]*list.Element, capRows), ll: list.New()}
}

// get returns row i and marks it most recently used, or nil on a miss.
func (c *rowCache) get(i int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[i]; ok {
		c.ll.MoveToFront(e)
		return e.Value.(*rowEntry).row
	}
	return nil
}

// peek returns row i without touching recency, or nil on a miss.
func (c *rowCache) peek(i int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[i]; ok {
		return e.Value.(*rowEntry).row
	}
	return nil
}

// put inserts row i, evicting the least recently used rows over capacity.
func (c *rowCache) put(i int, row []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[i]; ok {
		e.Value.(*rowEntry).row = row
		c.ll.MoveToFront(e)
		return
	}
	c.m[i] = c.ll.PushFront(&rowEntry{i: i, row: row})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		delete(c.m, back.Value.(*rowEntry).i)
		c.ll.Remove(back)
	}
}
