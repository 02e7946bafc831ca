package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"adwars/internal/features"
)

// Classifier predicts the label (+1 or −1) of a sparse binary sample.
type Classifier interface {
	Predict(s features.Sample) int
}

// SVMConfig holds SVM hyperparameters. The zero value is not usable; use
// DefaultSVMConfig as a starting point.
type SVMConfig struct {
	// Kernel is the kernel function (default RBF).
	Kernel Kernel
	// C is the soft-margin penalty.
	C float64
	// Tol is the KKT violation tolerance.
	Tol float64
	// MaxPasses is the number of full passes without alpha changes that
	// ends SMO.
	MaxPasses int
	// MaxIter hard-bounds total optimization sweeps.
	MaxIter int
	// KernelCache bounds the number of cached kernel values (Gram-matrix
	// entries) a training run may hold: a full matrix when n² fits, an
	// LRU of rows when only some do, and no caching at all when negative
	// — the reference path the differential tests and the sequential
	// benchmark baseline use. 0 means DefaultKernelCache. Caching never
	// changes results: cached and uncached runs are bit-identical.
	KernelCache int
	// Workers caps Gram-precompute fan-out over the shared worker pool
	// (0 = GOMAXPROCS).
	Workers int
}

// DefaultSVMConfig mirrors the paper's setup: RBF kernel, moderate C.
func DefaultSVMConfig() SVMConfig {
	return SVMConfig{
		Kernel:    RBF{Gamma: 0.05},
		C:         1.0,
		Tol:       1e-3,
		MaxPasses: 3,
		MaxIter:   200,
	}
}

// SVM is a trained support vector machine. Only support vectors (α > 0)
// are retained for prediction.
type SVM struct {
	kernel  Kernel
	vectors []features.Sample
	coefs   []float64 // αᵢyᵢ of each support vector
	bias    float64
	svIdx   []int // training-set indices of the support vectors

	// Compiled scoring form (score.go): ids[i] is support vector i's
	// distinct-id in sc. An SVM that is a round of an ensemble shares the
	// ensemble's scorer.
	ids []int32
	sc  *scorer
}

// NumSupportVectors returns the number of retained support vectors.
func (m *SVM) NumSupportVectors() int { return len(m.vectors) }

// Decision returns the signed decision value Σ αᵢyᵢK(xᵢ,s) + b.
func (m *SVM) Decision(s features.Sample) float64 {
	var buf [scratchVectors]float64
	return m.decide(m.sc.values(s, &buf))
}

// decisionGram is Decision for a sample of the training set itself, served
// from the training-run kernel cache instead of re-evaluating the kernel
// against every support vector. AdaBoost's per-round error pass uses it.
func (m *SVM) decisionGram(g *gram, sample int) float64 {
	v := m.bias
	for k, i := range m.svIdx {
		v += m.coefs[k] * g.at(i, sample)
	}
	return v
}

// Predict implements Classifier.
func (m *SVM) Predict(s features.Sample) int { return sign(m.Decision(s)) }

// TrainSVM trains a soft-margin SVM on the dataset with simplified SMO
// (Platt's algorithm with random second-choice heuristic). weights, when
// non-nil, scales each sample's penalty Cᵢ = C·wᵢ·n — the mechanism
// AdaBoost uses to focus component classifiers on hard samples. rng drives
// the pair selection and must be non-nil for reproducibility.
func TrainSVM(ds *features.Dataset, weights []float64, cfg SVMConfig, rng *rand.Rand) (*SVM, error) {
	if err := checkTrainInputs(ds, weights); err != nil {
		return nil, err
	}
	cfg.Kernel = resolveKernel(cfg.Kernel)
	g := newGram(cfg.Kernel, ds.Samples, cfg.KernelCache, cfg.Workers)
	return trainSVMGram(ds, weights, cfg, rng, g)
}

// checkTrainInputs validates the dataset and weight vector before the
// kernel cache is built.
func checkTrainInputs(ds *features.Dataset, weights []float64) error {
	n := ds.Len()
	if n == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if weights != nil && len(weights) != n {
		return fmt.Errorf("ml: %d weights for %d samples", len(weights), n)
	}
	hasPos, hasNeg := false, false
	for _, l := range ds.Labels {
		if l > 0 {
			hasPos = true
		} else {
			hasNeg = true
		}
	}
	if !hasPos || !hasNeg {
		return fmt.Errorf("ml: training set needs both classes")
	}
	return nil
}

// trainSVMGram trains a standalone SVM over a caller-supplied kernel cache
// and compiles it for scoring.
func trainSVMGram(ds *features.Dataset, weights []float64, cfg SVMConfig, rng *rand.Rand, g *gram) (*SVM, error) {
	m, err := solveSMO(ds, weights, cfg, rng, g)
	if err != nil {
		return nil, err
	}
	compile(m)
	return m, nil
}

// solveSMO is the SMO core; the SVM it returns is not yet compiled for
// scoring. g must cover exactly ds.Samples; callers that train repeatedly
// on the same samples (AdaBoost rounds, CV folds gathered from a
// corpus-wide cache) pass a shared gram so the kernel is evaluated once
// per pair across the whole run.
//
// The decision sum iterates a sorted active set of nonzero-α indices over
// precomputed αᵢyᵢ coefficients and a contiguous Gram row — the same terms
// in the same order as summing all indices and skipping zeros, so results
// are bit-identical at every cache policy.
func solveSMO(ds *features.Dataset, weights []float64, cfg SVMConfig, rng *rand.Rand, g *gram) (*SVM, error) {
	if err := checkTrainInputs(ds, weights); err != nil {
		return nil, err
	}
	cfg.Kernel = resolveKernel(cfg.Kernel)
	n := ds.Len()

	y := make([]float64, n)
	for i, l := range ds.Labels {
		if l > 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	// Per-sample C.
	cs := make([]float64, n)
	for i := range cs {
		cs[i] = cfg.C
		if weights != nil {
			cs[i] = cfg.C * weights[i] * float64(n)
			if cs[i] < 1e-8 {
				cs[i] = 1e-8
			}
		}
	}

	alpha := make([]float64, n)
	coef := make([]float64, n) // αᵢyᵢ, maintained alongside alpha
	var active []int32         // sorted indices with α ≠ 0
	b := 0.0

	setAlpha := func(i int, v float64) {
		was, now := alpha[i] != 0, v != 0
		alpha[i] = v
		coef[i] = v * y[i]
		if now == was {
			return
		}
		k := sort.Search(len(active), func(k int) bool { return active[k] >= int32(i) })
		if now {
			active = append(active, 0)
			copy(active[k+1:], active[k:])
			active[k] = int32(i)
		} else {
			active = append(active[:k], active[k+1:]...)
		}
	}

	decision := func(i int) float64 {
		v := b
		if row := g.row(i); row != nil {
			for _, j := range active {
				v += coef[j] * row[j]
			}
		} else {
			for _, j := range active {
				v += coef[j] * g.at(int(j), i)
			}
		}
		return v
	}

	passes, iter := 0, 0
	for passes < cfg.MaxPasses && iter < cfg.MaxIter {
		iter++
		changed := 0
		for i := 0; i < n; i++ {
			ei := decision(i) - y[i]
			if !((y[i]*ei < -cfg.Tol && alpha[i] < cs[i]) || (y[i]*ei > cfg.Tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := decision(j) - y[j]

			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(cs[j], cs[i]+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-cs[i])
				hi = math.Min(cs[j], ai+aj)
			}
			if lo >= hi {
				continue
			}
			eta := 2*g.at(i, j) - g.at(i, i) - g.at(j, j)
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-7 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)

			b1 := b - ei - y[i]*(aiNew-ai)*g.at(i, i) - y[j]*(ajNew-aj)*g.at(i, j)
			b2 := b - ej - y[i]*(aiNew-ai)*g.at(i, j) - y[j]*(ajNew-aj)*g.at(j, j)
			switch {
			case aiNew > 0 && aiNew < cs[i]:
				b = b1
			case ajNew > 0 && ajNew < cs[j]:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			setAlpha(i, aiNew)
			setAlpha(j, ajNew)
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	m := &SVM{kernel: cfg.Kernel, bias: b}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			m.vectors = append(m.vectors, ds.Samples[i])
			m.coefs = append(m.coefs, alpha[i]*y[i])
			m.svIdx = append(m.svIdx, i)
		}
	}
	if len(m.vectors) == 0 {
		// Degenerate optimization outcome: fall back to the class prior.
		pos := 0
		for _, l := range ds.Labels {
			if l > 0 {
				pos++
			}
		}
		if 2*pos >= n {
			m.bias = 1
		} else {
			m.bias = -1
		}
	}
	return m, nil
}
