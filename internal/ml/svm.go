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
	// Kernel is the paper's RBF kernel, set by its width γ.
	Kernel RBF
	// C is the soft-margin penalty.
	C float64
	// MaxIter hard-bounds total optimization sweeps.
	MaxIter int
}

// DefaultSVMConfig mirrors the paper's setup: RBF kernel, moderate C.
func DefaultSVMConfig() SVMConfig {
	return SVMConfig{
		Kernel:  RBF{Gamma: 0.05},
		C:       1.0,
		MaxIter: 200,
	}
}

const (
	// smoTol is SMO's KKT violation tolerance.
	smoTol = 1e-3
	// smoMaxPasses is the number of full passes without an α change that
	// ends SMO.
	smoMaxPasses = 3
)

// SVM is a trained support vector machine. Only support vectors (α > 0)
// are retained for prediction.
type SVM struct {
	kernel  RBF
	vectors []features.Sample
	coefs   []float64 // αᵢyᵢ of each support vector
	bias    float64
	svIdx   []int32 // training-set indices of the support vectors

	// What the solve that produced the model cost: sweeps over the training
	// set, ordered decision sums taken, KKT visits and steps the estimate
	// passed over without a sum, and whether it stopped at MaxIter instead
	// of converging. Benchmarks report them.
	sweeps, decisions   int
	kktSkips, stepSkips int
	capped              bool

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
	if err := checkTrainInputs(ds, weights, cfg); err != nil {
		return nil, err
	}
	g := newGram(cfg.Kernel, ds.Samples)
	return trainSVMGram(ds, weights, cfg, rng, g), nil
}

// check refuses a configuration no model can be trained under: γ must be
// finite and > 0, as the model reader demands, which keeps every kernel
// value in [0, 1]; C must be finite and > 0, so every penalty Cᵢ is; and
// at least one sweep must be allowed. Those are also the premises of the
// solver's error bound (bound.go).
func (cfg SVMConfig) check() error {
	if g := cfg.Kernel.Gamma; !(g > 0) || !finite(g) {
		return fmt.Errorf("ml: rbf gamma %v, want a finite value > 0", g)
	}
	if !(cfg.C > 0) || !finite(cfg.C) {
		return fmt.Errorf("ml: C %v, want a finite value > 0", cfg.C)
	}
	if cfg.MaxIter < 1 {
		return fmt.Errorf("ml: MaxIter %d, want ≥ 1", cfg.MaxIter)
	}
	return nil
}

// checkTrainInputs validates the configuration, the dataset and the weight
// vector, once per training run, before the Gram matrix is built.
func checkTrainInputs(ds *features.Dataset, weights []float64, cfg SVMConfig) error {
	if err := cfg.check(); err != nil {
		return err
	}
	n := ds.Len()
	if n == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if weights != nil && len(weights) != n {
		return fmt.Errorf("ml: %d weights for %d samples", len(weights), n)
	}
	for i, w := range weights {
		if !(w >= 0) || !finite(cfg.C*w*float64(n)) {
			return fmt.Errorf("ml: sample %d has weight %v, want a value ≥ 0 whose penalty C·w·n is finite", i, w)
		}
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
// Every value the solver branches on is an ordered sum over a sorted active
// set of nonzero-α indices — the same terms in the same order as summing all
// indices and skipping zeros, so results are bit-identical to the one-chain
// sum. Most of those sums decide nothing: a sample far from the KKT
// thresholds, or a step that clipping leaves under 1e-7. So the solver
// first asks an estimate (bound.go) for an interval certain to hold the sum,
// and takes the sum only when the decision differs across the interval;
// every test is monotone in the sum under round-to-nearest, so a decision
// that holds at both ends of the interval is the one the sum would give.
// Between steps a sum once taken stays exact and is read back as is.
func solveSMO(ds *features.Dataset, weights []float64, cfg SVMConfig, rng *rand.Rand, g *gram) *SVM {
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
	coef := make([]float64, n)    // αᵢyᵢ, maintained alongside alpha
	active := make([]int32, 0, n) // sorted indices with α ≠ 0
	b := 0.0
	m := &SVM{}

	// est.f[k] is sample k's ordered sum itself while exact[k] equals
	// version, which counts the steps that changed α or b, from 1; otherwise
	// est.interval(k) brackets it.
	est := newEstimate(n)
	exact := make([]uint32, n)
	version := uint32(1)

	setAlpha := func(i int, v float64) {
		was, now := alpha[i] != 0, v != 0
		alpha[i], coef[i] = v, v*y[i]
		if was == now {
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
	bounds := func(k int) (lo, hi float64) {
		if exact[k] == version {
			return est.f[k], est.f[k]
		}
		return est.interval(k)
	}
	take := func(k int, v float64) {
		m.decisions++
		est.reset(k, v)
		exact[k] = version
	}
	// violates is the KKT test on sample i for the sum v: whether αᵢ may
	// rise, whether it may fall.
	violates := func(i int, v float64) (under, over bool) {
		ye := y[i] * (v - y[i])
		return ye < -smoTol && alpha[i] < cs[i], ye > smoTol && alpha[i] > 0
	}

	passes := 0
	for passes < smoMaxPasses && m.sweeps < cfg.MaxIter {
		m.sweeps++
		changed := 0
		// alphaSum bounds Σ|α| for the estimate: summed afresh each sweep,
		// then raised by each step's |Δα|.
		alphaSum := 0.0
		for _, k := range active {
			alphaSum += math.Abs(coef[k])
		}
		for i := 0; i < n; i++ {
			vLo, vHi := bounds(i)
			uLo, oLo := violates(i, vLo)
			uHi, oHi := violates(i, vHi)
			if !(uLo || oLo || uHi || oHi) && vLo <= vHi {
				if exact[i] != version {
					m.kktSkips++
				}
				continue
			}
			if !(uLo && uHi || oLo && oHi) {
				take(i, decision(g, i, b, coef, active))
				if under, over := violates(i, est.f[i]); !under && !over {
					continue
				}
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
			// Neither test above reads a sum, and the step below reads
			// only ei − ej: the clipped step is monotone in it, so if the
			// step stays under 1e-7 at both ends of its interval it does at
			// the sums.
			if exact[i] != version || exact[j] != version {
				iLo, iHi := bounds(i)
				jLo, jHi := bounds(j)
				aLo := clipStep(aj, y[j], (iLo-y[i])-(jHi-y[j]), eta, lo, hi)
				aHi := clipStep(aj, y[j], (iHi-y[i])-(jLo-y[j]), eta, lo, hi)
				if math.Abs(aLo-aj) < 1e-7 && math.Abs(aHi-aj) < 1e-7 {
					m.stepSkips++
					continue
				}
				switch {
				case exact[i] != version && exact[j] != version:
					vi, vj := decision2(g, i, j, b, coef, active)
					take(i, vi)
					take(j, vj)
				case exact[i] != version:
					take(i, decision(g, i, b, coef, active))
				default:
					take(j, decision(g, j, b, coef, active))
				}
			}
			ei, ej := est.f[i]-y[i], est.f[j]-y[j]
			ajNew := clipStep(aj, y[j], ei-ej, eta, lo, hi)
			if math.Abs(ajNew-aj) < 1e-7 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)

			b1 := b - ei - y[i]*(aiNew-ai)*g.at(i, i) - y[j]*(ajNew-aj)*g.at(i, j)
			b2 := b - ej - y[i]*(aiNew-ai)*g.at(i, j) - y[j]*(ajNew-aj)*g.at(j, j)
			dci, dcj, bOld := aiNew*y[i]-coef[i], ajNew*y[j]-coef[j], b
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
			version++
			alphaSum += math.Abs(dci) + math.Abs(dcj)
			est.step(g.row(i), g.row(j), dci, dcj, b-bOld, b, alphaSum, len(active))
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	m.capped = passes < smoMaxPasses

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

// clipStep is SMO's new αⱼ for the error difference d = ei − ej, clipped to
// [lo, hi]: monotone in d, since every operation in it rounds monotonically.
func clipStep(aj, yj, d, eta, lo, hi float64) float64 {
	a := aj - yj*d/eta
	if a > hi {
		return hi
	} else if a < lo {
		return lo
	}
	return a
}

// smoBlock is how many consecutive samples' decisions one pass over the
// coefficients accumulates in the error pass. A decision is an ordered sum —
// each add waits for the one before it, so a single chain runs at the
// latency of a float add and leaves the core's other ports idle; four
// independent chains fill them. Eight measured no faster (register
// spills).
const smoBlock = 4

// decision returns the ordered sum bias + Σₜ coef[idx[t]]·K(x_idx[t], xᵢ)
// over sample i's Gram row, coef held by sample index.
func decision(g *gram, i int, bias float64, coef []float64, idx []int32) float64 {
	v := bias
	row := g.row(i)
	coef = coef[:len(row)]
	for _, k := range idx {
		v += coef[k] * row[k]
	}
	return v
}

// decision2 returns decision for samples i and j from one pass over the
// active set: two independent chains, each decision's terms in decision's
// order, so both values are bit-identical to the one-chain sum.
func decision2(g *gram, i, j int, bias float64, coef []float64, idx []int32) (vi, vj float64) {
	vi, vj = bias, bias
	ri, rj := g.row(i), g.row(j)
	coef, rj = coef[:len(ri)], rj[:len(ri)]
	for _, k := range idx {
		c := coef[k]
		vi += c * ri[k]
		vj += c * rj[k]
	}
	return vi, vj
}

// decisionBlock returns the error pass's decisions for samples i …
// i+smoBlock−1 from one pass over a model's compact coefficients. Past the
// last sample the last row repeats: those entries are not meaningful.
func decisionBlock(g *gram, i int, bias float64, coefs []float64, idx []int32) (blk [smoBlock]float64) {
	last := g.n - 1
	blk[0], blk[1], blk[2], blk[3] = sum4(bias, coefs, idx,
		g.row(i), g.row(min(i+1, last)), g.row(min(i+2, last)), g.row(min(i+3, last)))
	return blk
}

// sum4 accumulates four independent chains vₖ = bias; vₖ += coefs[t]·rₖ[idx[t]],
// each in the one-chain order, so every value is bit-identical to the
// one-chain sum.
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
