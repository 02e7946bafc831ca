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
	svIdx   []int32 // training-set indices of the support vectors

	// What the solve that produced the model cost: sweeps over the training
	// set, ordered decision sums accumulated (the values a block computed
	// and an α or b change discarded included), and whether it stopped at
	// MaxIter instead of converging. Benchmarks report them.
	sweeps, decisions int
	capped            bool

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

// decisionsGram is Decision for every sample of the training set itself,
// out[i] for sample i, served from the training run's Gram matrix instead of
// re-evaluating the kernel against every support vector. AdaBoost's
// per-round error pass uses it.
func (m *SVM) decisionsGram(g *gram, out []float64) {
	for i := 0; i < len(out); {
		blk := decisionBlock(g, i, m.bias, m.coefs, m.svIdx)
		i += copy(out[i:], blk[:])
	}
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
	g := newGram(cfg.Kernel, ds.Samples)
	return trainSVMGram(ds, weights, cfg, rng, g), nil
}

// checkTrainInputs validates the dataset and weight vector, once per
// training run, before the Gram matrix is built.
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

// trainSVMGram trains a standalone SVM over a caller-supplied Gram matrix
// and compiles it for scoring. The caller has run checkTrainInputs.
func trainSVMGram(ds *features.Dataset, weights []float64, cfg SVMConfig, rng *rand.Rand, g *gram) *SVM {
	m := solveSMO(ds, weights, cfg, rng, g)
	compile(m)
	return m
}

// solveSMO is the SMO core; the SVM it returns is not yet compiled for
// scoring. The caller has run checkTrainInputs, and g must cover exactly
// ds.Samples; callers that train repeatedly on the same samples (AdaBoost
// rounds, CV folds gathered from a corpus-wide matrix) pass a shared gram so
// the kernel is evaluated once per pair across the whole run.
//
// Decisions are ordered sums over a sorted active set of nonzero-α indices
// and their αᵢyᵢ coefficients — the same terms in the same order as summing
// all indices and skipping zeros, so results are bit-identical to the
// one-chain sum. The sweep reads its decisions smoBlock samples at a time
// (decisionBlock); the block holds until a step changes α or b, which the
// traffic makes rare: about nine times in a 129-sample sweep.
func solveSMO(ds *features.Dataset, weights []float64, cfg SVMConfig, rng *rand.Rand, g *gram) *SVM {
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
	active := make([]int32, 0, n) // sorted indices with α ≠ 0
	coef := make([]float64, 0, n) // αᵢyᵢ of active[t], maintained alongside alpha
	b := 0.0
	m := &SVM{}

	// blk holds the decisions of samples blkAt … blkAt+smoBlock−1 under the
	// current α and b; a step that changes either moves blkAt out of reach.
	var blk [smoBlock]float64
	const noBlock = -smoBlock
	blkAt := noBlock

	setAlpha := func(i int, v float64) {
		was, now := alpha[i] != 0, v != 0
		alpha[i] = v
		if !was && !now {
			return
		}
		k := sort.Search(len(active), func(k int) bool { return active[k] >= int32(i) })
		switch {
		case was && now:
			coef[k] = v * y[i]
		case now:
			active = append(active, 0)
			copy(active[k+1:], active[k:])
			active[k] = int32(i)
			coef = append(coef, 0)
			copy(coef[k+1:], coef[k:])
			coef[k] = v * y[i]
		default:
			active = append(active[:k], active[k+1:]...)
			coef = append(coef[:k], coef[k+1:]...)
		}
	}

	// sweepDecision is decision(i) for the sweep, which visits samples in
	// order: a miss fills the block from i on.
	sweepDecision := func(i int) float64 {
		if k := uint(i - blkAt); k < smoBlock {
			return blk[k]
		}
		m.decisions += min(smoBlock, n-i)
		blk, blkAt = decisionBlock(g, i, b, coef, active), i
		return blk[0]
	}

	passes := 0
	for passes < cfg.MaxPasses && m.sweeps < cfg.MaxIter {
		m.sweeps++
		changed := 0
		for i := 0; i < n; i++ {
			ei := sweepDecision(i) - y[i]
			if !((y[i]*ei < -cfg.Tol && alpha[i] < cs[i]) || (y[i]*ei > cfg.Tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}

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
			// Neither test above reads ej, and a fifth of violators end at
			// one of them, so its sum waits until here.
			m.decisions++
			ej := decision(g, j, b, coef, active) - y[j]
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
			blkAt = noBlock
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	m.capped = passes < cfg.MaxPasses

	m.kernel, m.bias = cfg.Kernel, b
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			m.vectors = append(m.vectors, ds.Samples[i])
			m.coefs = append(m.coefs, alpha[i]*y[i])
			m.svIdx = append(m.svIdx, int32(i))
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
	return m
}

// smoBlock is how many consecutive samples' decisions one pass over the
// coefficients accumulates. A decision is an ordered sum — each add waits
// for the one before it, so a single chain runs at the latency of a float
// add and leaves the core's other ports idle; four independent chains fill
// them. Eight measured no faster (more discarded values, register spills).
const smoBlock = 4

// decision returns the ordered sum bias + Σₜ coefs[t]·K(x_idx[t], xᵢ) over
// sample i's Gram row.
func decision(g *gram, i int, bias float64, coefs []float64, idx []int32) float64 {
	v := bias
	row := g.row(i)
	for t, j := range idx {
		v += coefs[t] * row[j]
	}
	return v
}

// decisionBlock returns decision for samples i … i+smoBlock−1 from one
// pass over the coefficients. Past the last sample the last row repeats:
// those entries are not meaningful.
func decisionBlock(g *gram, i int, bias float64, coefs []float64, idx []int32) (blk [smoBlock]float64) {
	last := g.n - 1
	blk[0], blk[1], blk[2], blk[3] = sum4(bias, coefs, idx,
		g.row(i), g.row(min(i+1, last)), g.row(min(i+2, last)), g.row(min(i+3, last)))
	return blk
}

// sum4 accumulates four independent chains vₖ = bias; vₖ += coefs[t]·rₖ[idx[t]],
// each the terms of decision in decision's order, so every value is
// bit-identical to the one-chain sum.
func sum4(bias float64, coefs []float64, idx []int32, r0, r1, r2, r3 []float64) (v0, v1, v2, v3 float64) {
	v0, v1, v2, v3 = bias, bias, bias, bias
	// Equal lengths leave the loop one bounds check, not five.
	coefs = coefs[:len(idx)]
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	for t, j := range idx {
		c := coefs[t]
		v0 += c * r0[j]
		v1 += c * r1[j]
		v2 += c * r2[j]
		v3 += c * r3[j]
	}
	return v0, v1, v2, v3
}
