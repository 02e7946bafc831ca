package ml

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"adwars/internal/crawler"
	"adwars/internal/features"
)

// Trainer builds a classifier from a training dataset. The rng is owned by
// the call (cross-validation passes an independent one per fold so folds
// can run concurrently and deterministically).
type Trainer func(train *features.Dataset, rng *rand.Rand) (Classifier, error)

// CrossValidate performs stratified k-fold cross-validation — the paper's
// 10-fold protocol — and returns the confusion matrix accumulated across
// held-out folds. Folds are evaluated concurrently. seed fixes both the
// stratified shuffle and the per-fold training rngs, making results
// reproducible.
func CrossValidate(ds *features.Dataset, k int, trainer Trainer, seed int64) (Confusion, error) {
	if k < 2 {
		return Confusion{}, fmt.Errorf("ml: k must be ≥ 2, got %d", k)
	}
	if ds.Len() < k {
		return Confusion{}, fmt.Errorf("ml: %d samples cannot fill %d folds", ds.Len(), k)
	}
	folds := stratifiedFolds(ds, k, rand.New(rand.NewSource(seed)))

	type result struct {
		c   Confusion
		err error
	}
	results := make([]result, k)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for f := 0; f < k; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var trainIdx, testIdx []int
			for g := 0; g < k; g++ {
				if g == f {
					testIdx = append(testIdx, folds[g]...)
				} else {
					trainIdx = append(trainIdx, folds[g]...)
				}
			}
			model, err := trainer(ds.Subset(trainIdx), rand.New(rand.NewSource(seed+int64(f)+1)))
			if err != nil {
				results[f] = result{err: err}
				return
			}
			results[f] = result{c: Evaluate(model, ds.Subset(testIdx))}
		}(f)
	}
	wg.Wait()

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

// CVConfig parameterizes the shared-cache cross-validation entry points.
type CVConfig struct {
	// Folds is k (the paper's protocol uses 10).
	Folds int
	// Seed fixes the stratified shuffle and the per-fold training rngs —
	// the same scheme as CrossValidate, so results are identical between
	// the two paths.
	Seed int64
	// Workers caps concurrent fold training and Gram precompute fan-out
	// (0 = GOMAXPROCS, 1 = strictly sequential). Fold confusions merge in
	// fold order, so the result is identical at any worker count.
	Workers int
}

func (cv CVConfig) workers() int {
	if cv.Workers > 0 {
		return cv.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// CrossValidateSVM cross-validates a plain SVM, precomputing one Gram
// matrix over the full dataset and gathering per-fold views from it, so
// the kernel is evaluated once per sample pair across all k folds instead
// of once per fold.
func CrossValidateSVM(ds *features.Dataset, cfg SVMConfig, cv CVConfig) (Confusion, error) {
	cfg.Kernel = resolveKernel(cfg.Kernel)
	return crossValidateShared(ds, cv, cfg.Kernel, cfg.KernelCache,
		func(train *features.Dataset, g *gram, rng *rand.Rand) (Classifier, error) {
			if err := checkTrainInputs(train, nil); err != nil {
				return nil, err
			}
			return trainSVMGram(train, nil, cfg, rng, g), nil
		})
}

// CrossValidateAdaBoost cross-validates an AdaBoost+SVM ensemble with the
// same shared kernel cache: each fold's view serves every boosting round
// of that fold.
func CrossValidateAdaBoost(ds *features.Dataset, cfg AdaBoostConfig, cv CVConfig) (Confusion, error) {
	cfg.SVM.Kernel = resolveKernel(cfg.SVM.Kernel)
	return crossValidateShared(ds, cv, cfg.SVM.Kernel, cfg.SVM.KernelCache,
		func(train *features.Dataset, g *gram, rng *rand.Rand) (Classifier, error) {
			return trainAdaBoostGram(train, cfg, rng, g)
		})
}

// crossValidateShared runs stratified k-fold CV with one corpus-wide
// kernel cache. Fold assignment, per-fold rng seeding, and the fold-order
// confusion merge replicate CrossValidate exactly; only where kernel
// values come from differs, and cached values are bit-identical to fresh
// evaluations — so both paths produce the same confusion matrix.
func crossValidateShared(ds *features.Dataset, cv CVConfig, kernel Kernel, cacheEntries int,
	train func(*features.Dataset, *gram, *rand.Rand) (Classifier, error)) (Confusion, error) {
	k := cv.Folds
	if k < 2 {
		return Confusion{}, fmt.Errorf("ml: k must be ≥ 2, got %d", k)
	}
	if ds.Len() < k {
		return Confusion{}, fmt.Errorf("ml: %d samples cannot fill %d folds", ds.Len(), k)
	}
	workers := cv.workers()
	shared := newGram(kernel, ds.Samples, cacheEntries, workers)
	folds := stratifiedFolds(ds, k, rand.New(rand.NewSource(cv.Seed)))

	type result struct {
		c   Confusion
		err error
	}
	results := make([]result, k)
	_ = crawler.ForEach(context.Background(), workers, k, func(f int) {
		var trainIdx, testIdx []int
		for g := 0; g < k; g++ {
			if g == f {
				testIdx = append(testIdx, folds[g]...)
			} else {
				trainIdx = append(trainIdx, folds[g]...)
			}
		}
		g := shared.subset(trainIdx, cacheEntries, 1)
		model, err := train(ds.Subset(trainIdx), g, rand.New(rand.NewSource(cv.Seed+int64(f)+1)))
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

// SVMTrainer adapts TrainSVM to the Trainer signature.
func SVMTrainer(cfg SVMConfig) Trainer {
	return func(train *features.Dataset, rng *rand.Rand) (Classifier, error) {
		return TrainSVM(train, nil, cfg, rng)
	}
}

// AdaBoostTrainer adapts TrainAdaBoost to the Trainer signature.
func AdaBoostTrainer(cfg AdaBoostConfig) Trainer {
	return func(train *features.Dataset, rng *rand.Rand) (Classifier, error) {
		return TrainAdaBoost(train, cfg, rng)
	}
}
