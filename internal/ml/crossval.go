package ml

import (
	"context"
	"fmt"
	"math/rand"

	"adwars/internal/fanout"
	"adwars/internal/features"
)

// crossValidate is the paper's stratified k-fold protocol, the fold loop
// both entry points run: check that the samples fill k ≥ 2 folds, build one
// Gram matrix over the whole set, stratify, train fold f on the other k−1
// folds (refused if they hold one class) with an rng seeded cv.Seed+f+1 and
// its view of that matrix, evaluate it on the held-out one, and merge the
// confusions in fold order — so the result is identical at any core count.
// The folds fan out one worker per core, and each holds its own Gram view
// while it trains, so GOMAXPROCS bounds how many are alive at once.
func crossValidate(ds *features.Dataset, cv CVConfig, kernel RBF,
	train func(train *features.Dataset, rng *rand.Rand, g *gram) Classifier) (Confusion, error) {
	k := cv.Folds
	if k < 2 {
		return Confusion{}, fmt.Errorf("ml: k must be ≥ 2, got %d", k)
	}
	if ds.Len() < k {
		return Confusion{}, fmt.Errorf("ml: %d samples cannot fill %d folds", ds.Len(), k)
	}
	// The checks come first: the matrix is n² floats, 32 MB at 2 000
	// samples.
	shared := newGram(kernel, ds.Samples)
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
		trainSet := ds.Subset(trainIdx)
		if err := checkTrainInputs(trainSet, nil); err != nil {
			results[f] = result{err: err}
			return
		}
		model := train(trainSet, rand.New(rand.NewSource(cv.Seed+int64(f)+1)), shared.subset(trainIdx))
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
	return crossValidate(ds, cv, cfg.Kernel, func(train *features.Dataset, rng *rand.Rand, g *gram) Classifier {
		return trainSVMGram(train, nil, cfg, rng, g)
	})
}

// CrossValidateAdaBoost cross-validates an AdaBoost+SVM ensemble over the
// same shared Gram matrix: each fold's view serves every boosting round of
// that fold.
func CrossValidateAdaBoost(ds *features.Dataset, cfg AdaBoostConfig, cv CVConfig) (Confusion, error) {
	if cfg.Rounds <= 0 {
		return Confusion{}, fmt.Errorf("ml: rounds must be positive")
	}
	return crossValidate(ds, cv, cfg.SVM.Kernel, func(train *features.Dataset, rng *rand.Rand, g *gram) Classifier {
		return trainAdaBoostGram(train, cfg, rng, g)
	})
}
