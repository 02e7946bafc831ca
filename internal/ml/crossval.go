package ml

import (
	"context"
	"fmt"
	"math/rand"

	"adwars/internal/fanout"
	"adwars/internal/features"
)

// crossValidate is the paper's stratified k-fold protocol, the fold loop
// both entry points run: stratify, train fold f on the other k−1 folds with
// an rng seeded cv.Seed+f+1, evaluate it on the held-out one, and merge the
// confusions in fold order — so the result is identical at any core count.
// The folds fan out one worker per core, and each holds its own Gram view
// while it trains, so GOMAXPROCS bounds how many are alive at once.
func crossValidate(ds *features.Dataset, cv CVConfig,
	train func(trainIdx []int, rng *rand.Rand) (Classifier, error)) (Confusion, error) {
	k := cv.Folds
	if k < 2 {
		return Confusion{}, fmt.Errorf("ml: k must be ≥ 2, got %d", k)
	}
	if ds.Len() < k {
		return Confusion{}, fmt.Errorf("ml: %d samples cannot fill %d folds", ds.Len(), k)
	}
	folds := stratifiedFolds(ds, k, rand.New(rand.NewSource(cv.Seed)))

	type result struct {
		c   Confusion
		err error
	}
	results := make([]result, k)
	_ = fanout.ForEach(context.Background(), 0, k, func(f int) {
		var trainIdx, testIdx []int
		for g := 0; g < k; g++ {
			if g == f {
				testIdx = append(testIdx, folds[g]...)
			} else {
				trainIdx = append(trainIdx, folds[g]...)
			}
		}
		model, err := train(trainIdx, rand.New(rand.NewSource(cv.Seed+int64(f)+1)))
		if err != nil {
			results[f] = result{err: err}
			return
		}
		results[f] = result{c: Evaluate(model, ds.Subset(testIdx))}
	})

	var total Confusion
	for f := 0; f < k; f++ {
		if results[f].err != nil {
			return Confusion{}, fmt.Errorf("ml: fold %d: %w", f, results[f].err)
		}
		total.Add(results[f].c)
	}
	return total, nil
}

// stratifiedFolds shuffles positives and negatives separately and deals
// them round-robin into k folds so every fold preserves the ~10:1 class
// imbalance of the corpus.
func stratifiedFolds(ds *features.Dataset, k int, rng *rand.Rand) [][]int {
	var pos, neg []int
	for i, l := range ds.Labels {
		if l > 0 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	folds := make([][]int, k)
	for i, idx := range pos {
		folds[i%k] = append(folds[i%k], idx)
	}
	for i, idx := range neg {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds
}

// CVConfig parameterizes the shared-Gram cross-validation entry points.
type CVConfig struct {
	// Folds is k (the paper's protocol uses 10).
	Folds int
	// Seed fixes the stratified shuffle and the per-fold training rngs,
	// so results are reproducible and identical between the entry points.
	Seed int64
}

// CrossValidateSVM cross-validates a plain SVM, computing one Gram matrix
// over the full dataset and gathering per-fold views from it, so the kernel
// is evaluated once per sample pair across all k folds instead of once per
// fold.
func CrossValidateSVM(ds *features.Dataset, cfg SVMConfig, cv CVConfig) (Confusion, error) {
	cfg.Kernel = resolveKernel(cfg.Kernel)
	shared := newGram(cfg.Kernel, ds.Samples)
	return crossValidate(ds, cv, func(trainIdx []int, rng *rand.Rand) (Classifier, error) {
		train := ds.Subset(trainIdx)
		if err := checkTrainInputs(train, nil); err != nil {
			return nil, err
		}
		return trainSVMGram(train, nil, cfg, rng, shared.subset(trainIdx)), nil
	})
}

// CrossValidateAdaBoost cross-validates an AdaBoost+SVM ensemble over the
// same shared Gram matrix: each fold's view serves every boosting round of
// that fold.
func CrossValidateAdaBoost(ds *features.Dataset, cfg AdaBoostConfig, cv CVConfig) (Confusion, error) {
	cfg.SVM.Kernel = resolveKernel(cfg.SVM.Kernel)
	shared := newGram(cfg.SVM.Kernel, ds.Samples)
	return crossValidate(ds, cv, func(trainIdx []int, rng *rand.Rand) (Classifier, error) {
		return trainAdaBoostGram(ds.Subset(trainIdx), cfg, rng, shared.subset(trainIdx))
	})
}
