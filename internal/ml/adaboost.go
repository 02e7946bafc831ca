package ml

import (
	"fmt"
	"math"
	"math/rand"

	"adwars/internal/features"
)

// AdaBoostConfig holds ensemble hyperparameters.
type AdaBoostConfig struct {
	// Rounds is the maximum number of boosting rounds T.
	Rounds int
	// SVM configures every component classifier.
	SVM SVMConfig
}

// DefaultAdaBoostConfig mirrors the paper's classifier: AdaBoost with
// RBF-kernel SVM component classifiers.
func DefaultAdaBoostConfig() AdaBoostConfig {
	cfg := DefaultSVMConfig()
	// Component classifiers should be weak-ish: a wide RBF and small C
	// (per Li, Wang & Sung) leaves room for boosting to help.
	cfg.Kernel = RBF{Gamma: 0.02}
	cfg.C = 0.5
	return AdaBoostConfig{Rounds: 10, SVM: cfg}
}

// AdaBoost is a trained ensemble f(x) = sign(Σ αₜhₜ(x)).
type AdaBoost struct {
	models []*SVM
	alphas []float64
	sc     *scorer // compiled scoring form shared by every round (score.go)
}

// Rounds returns the number of boosting rounds actually trained.
func (a *AdaBoost) Rounds() int { return len(a.models) }

// NumSupportVectors returns the support vectors summed over all rounds.
func (a *AdaBoost) NumSupportVectors() int {
	n := 0
	for _, m := range a.models {
		n += m.NumSupportVectors()
	}
	return n
}

// NumDistinctVectors returns how many of those support vectors are
// distinct — the number of kernel evaluations one Decision costs.
func (a *AdaBoost) NumDistinctVectors() int {
	if a.sc == nil {
		return 0
	}
	return len(a.sc.pops)
}

// AlphaSum returns Σ|αₜ|, the largest magnitude Decision can reach. The
// serving layer normalizes decision values by it to report a bounded
// [0,1] anti-adblock score.
func (a *AdaBoost) AlphaSum() float64 {
	sum := 0.0
	for _, alpha := range a.alphas {
		sum += math.Abs(alpha)
	}
	return sum
}

// Decision returns the weighted vote Σ αₜhₜ(s).
func (a *AdaBoost) Decision(s features.Sample) float64 {
	var buf [scratchVectors]float64
	kv := a.sc.values(s, &buf)
	v := 0.0
	for t, m := range a.models {
		v += a.alphas[t] * float64(sign(m.decide(kv)))
	}
	return v
}

// Predict implements Classifier.
func (a *AdaBoost) Predict(s features.Sample) int { return sign(a.Decision(s)) }

// TrainAdaBoost trains AdaBoost.M1 with SVM component classifiers. Each
// round trains a weighted SVM, computes its weighted training error ε, and
// re-weights samples by exp(∓αₜ) with αₜ = ½ln((1−ε)/ε). Boosting stops
// early when a component is perfect (ε≈0) or no better than chance
// (ε≥0.5), per the standard algorithm.
func TrainAdaBoost(ds *features.Dataset, cfg AdaBoostConfig, rng *rand.Rand) (*AdaBoost, error) {
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("ml: rounds must be positive")
	}
	if err := checkTrainInputs(ds, nil, cfg.SVM); err != nil {
		return nil, err
	}
	// Component SVMs train on reweighted views of the same samples, so one
	// Gram matrix serves every boosting round.
	g := newGram(cfg.SVM.Kernel, ds.Samples)
	return trainAdaBoostGram(ds, cfg, rng, g), nil
}

// trainAdaBoostGram is the boosting core over a caller-supplied Gram matrix
// (cross-validation passes per-fold views gathered from a shared corpus-wide
// one). The caller has checked cfg.Rounds and run checkTrainInputs.
func trainAdaBoostGram(ds *features.Dataset, cfg AdaBoostConfig, rng *rand.Rand, g *gram) *AdaBoost {
	n := ds.Len()
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	// The error pass scores training samples against the round's support
	// vectors through the Gram matrix instead of re-evaluating the kernel
	// per (SV, sample) pair.
	dec := make([]float64, n)
	missed := func(i int) bool { return sign(dec[i]) != ds.Labels[i] }
	ens := &AdaBoost{}
	for t := 0; t < cfg.Rounds; t++ {
		m := solveSMO(ds, w, cfg.SVM, rng, g)
		m.decisionsGram(g, dec)
		eps := 0.0
		for i := range w {
			if missed(i) {
				eps += w[i]
			}
		}
		if eps >= 0.5 {
			// Component no better than chance; keep earlier rounds. If
			// this is the first round, keep it anyway so the ensemble is
			// usable.
			if len(ens.models) == 0 {
				ens.models = append(ens.models, m)
				ens.alphas = append(ens.alphas, 1)
			}
			break
		}
		if eps < 1e-10 {
			// Perfect component: dominate the vote and stop.
			ens.models = append(ens.models, m)
			ens.alphas = append(ens.alphas, 10)
			break
		}
		alpha := 0.5 * math.Log((1-eps)/eps)
		ens.models = append(ens.models, m)
		ens.alphas = append(ens.alphas, alpha)

		// Re-weight and renormalize.
		sum := 0.0
		for i := range w {
			if missed(i) {
				w[i] *= math.Exp(alpha)
			} else {
				w[i] *= math.Exp(-alpha)
			}
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	ens.sc = compile(ens.models...)
	return ens
}
