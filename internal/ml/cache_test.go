package ml

import (
	"math/rand"
	"runtime"
	"testing"

	"adwars/internal/features"
)

// eval is the kernel on two samples, their popcounts and intersection taken
// on the spot: the value newGram and the scorer are held to.
func (k RBF) eval(a, b features.Sample) float64 {
	return k.evalCounts(a.Popcount(), b.Popcount(), a.IntersectionSize(b))
}

// directGram is the oracle the Gram tests hold newGram to: every entry from
// eval on the two samples, one pair at a time — no popcounts taken ahead, no
// mirroring across the diagonal, no fan-out.
func directGram(k RBF, x []features.Sample) *gram {
	n := len(x)
	g := &gram{n: n, full: make([]float64, n*n)}
	for i := range x {
		for j := range x {
			g.full[i*n+j] = k.eval(x[i], x[j])
		}
	}
	return g
}

// setProcs runs the rest of the test at GOMAXPROCS n and restores the
// previous value when it ends. A test that calls it must not be parallel.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestKernelCacheDifferential is the Gram matrix's correctness gate: SMO and
// boosting over the matrix TrainSVM and TrainAdaBoost build for themselves
// must produce the support vectors, the bias and every decision value they
// produce over the direct oracle — the matrix may only change where kernel
// values come from, never what they are.
func TestKernelCacheDifferential(t *testing.T) {
	ds := synthDataset(t, 30, 90, 17)
	n := ds.Len()
	svmCfg, adaCfg := DefaultSVMConfig(), DefaultAdaBoostConfig()
	base := trainSVMGram(ds, nil, svmCfg, rand.New(rand.NewSource(9)), directGram(svmCfg.Kernel, ds.Samples))
	baseBoost := trainAdaBoostGram(ds, adaCfg, rand.New(rand.NewSource(9)), directGram(adaCfg.SVM.Kernel, ds.Samples))
	for _, procs := range []int{1, 3} {
		setProcs(t, procs)
		m, err := TrainSVM(ds, nil, svmCfg, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := TrainAdaBoost(ds, adaCfg, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		if m.NumSupportVectors() != base.NumSupportVectors() {
			t.Fatalf("GOMAXPROCS %d: %d support vectors, direct run has %d",
				procs, m.NumSupportVectors(), base.NumSupportVectors())
		}
		if m.bias != base.bias {
			t.Fatalf("GOMAXPROCS %d: bias %v != %v", procs, m.bias, base.bias)
		}
		for k := range m.coefs {
			if m.coefs[k] != base.coefs[k] || m.svIdx[k] != base.svIdx[k] {
				t.Fatalf("GOMAXPROCS %d: support vector %d diverges (coef %v vs %v, idx %d vs %d)",
					procs, k, m.coefs[k], base.coefs[k], m.svIdx[k], base.svIdx[k])
			}
		}
		for i := 0; i < n; i++ {
			if got, want := m.Decision(ds.Samples[i]), base.Decision(ds.Samples[i]); got != want {
				t.Fatalf("GOMAXPROCS %d: decision(%d) = %v, want %v", procs, i, got, want)
			}
			if got, want := bb.Decision(ds.Samples[i]), baseBoost.Decision(ds.Samples[i]); got != want {
				t.Fatalf("GOMAXPROCS %d: boost decision(%d) = %v, want %v", procs, i, got, want)
			}
		}
	}
}

// TestGramPoliciesAgree checks the matrix holds the kernel values a direct
// evaluation returns, by element and by row, on one core and on several,
// under the two widths the product trains (plain SVM and boosted rounds).
func TestGramPoliciesAgree(t *testing.T) {
	ds := synthDataset(t, 12, 36, 4)
	n := ds.Len()
	for kname, k := range map[string]RBF{"γ=0.05": DefaultSVMConfig().Kernel, "γ=0.02": DefaultAdaBoostConfig().SVM.Kernel} {
		direct := directGram(k, ds.Samples)
		for _, procs := range []int{1, 3} {
			setProcs(t, procs)
			full := newGram(k, ds.Samples)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := k.eval(ds.Samples[i], ds.Samples[j])
					if got := direct.at(i, j); got != want {
						t.Fatalf("%s: direct at(%d,%d) = %v, want %v", kname, i, j, got, want)
					}
					if got := full.at(i, j); got != want {
						t.Fatalf("%s GOMAXPROCS %d: at(%d,%d) = %v, want %v", kname, procs, i, j, got, want)
					}
					if row := full.row(i); row[j] != want {
						t.Fatalf("%s GOMAXPROCS %d: row(%d)[%d] = %v, want %v", kname, procs, i, j, row[j], want)
					}
				}
			}
		}
	}
}

// TestGramSubsetGathersExactValues checks the fold-view gather path: a
// subset gram over shuffled indices must serve exactly the values the
// direct oracle holds for those samples.
func TestGramSubsetGathersExactValues(t *testing.T) {
	ds := synthDataset(t, 15, 45, 8)
	k := RBF{Gamma: 0.02}
	idx := []int{53, 2, 17, 4, 31, 8, 44, 0, 29}
	xs := make([]features.Sample, len(idx))
	for a, i := range idx {
		xs[a] = ds.Samples[i]
	}
	want := directGram(k, xs)
	sub := newGram(k, ds.Samples).subset(idx)
	if sub.n != len(idx) {
		t.Fatalf("subset over %d samples, want %d", sub.n, len(idx))
	}
	for a := range idx {
		for b := range idx {
			if got := sub.at(a, b); got != want.at(a, b) {
				t.Fatalf("subset at(%d,%d) = %v, want %v", a, b, got, want.at(a, b))
			}
			if got := sub.row(a)[b]; got != want.at(a, b) {
				t.Fatalf("subset row(%d)[%d] = %v, want %v", a, b, got, want.at(a, b))
			}
		}
	}
}

// perFoldCV is the reference the shared-Gram entry points are held to: the
// same stratified folds and per-fold rng seeds, each fold trained from
// scratch by TrainSVM or TrainAdaBoost on its own subset (so one Gram matrix
// per fold), one fold after another.
func perFoldCV(t *testing.T, ds *features.Dataset, k int, seed int64, boost bool) Confusion {
	t.Helper()
	folds := stratifiedFolds(ds, k, rand.New(rand.NewSource(seed)))
	var total Confusion
	for f := range folds {
		var trainIdx []int
		for g := range folds {
			if g != f {
				trainIdx = append(trainIdx, folds[g]...)
			}
		}
		rng := rand.New(rand.NewSource(seed + int64(f) + 1))
		var model Classifier
		var err error
		if boost {
			model, err = TrainAdaBoost(ds.Subset(trainIdx), DefaultAdaBoostConfig(), rng)
		} else {
			model, err = TrainSVM(ds.Subset(trainIdx), nil, DefaultSVMConfig(), rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		total.Add(Evaluate(model, ds.Subset(folds[f])))
	}
	return total
}

// TestCrossValidateSharedMatchesLegacy proves the shared-Gram CV entry
// points reproduce perFoldCV, which builds one Gram matrix per fold,
// exactly — for both classifiers, on one core and on several.
func TestCrossValidateSharedMatchesLegacy(t *testing.T) {
	ds := synthDataset(t, 25, 75, 3)
	const folds, seed = 5, 21

	legacySVM := perFoldCV(t, ds, folds, seed, false)
	legacyAda := perFoldCV(t, ds, folds, seed, true)
	for _, procs := range []int{1, 3} {
		setProcs(t, procs)
		cv := CVConfig{Folds: folds, Seed: seed}
		gotSVM, err := CrossValidateSVM(ds, DefaultSVMConfig(), cv)
		if err != nil {
			t.Fatal(err)
		}
		if gotSVM != legacySVM {
			t.Fatalf("GOMAXPROCS %d: shared SVM CV %+v != legacy %+v", procs, gotSVM, legacySVM)
		}
		gotAda, err := CrossValidateAdaBoost(ds, DefaultAdaBoostConfig(), cv)
		if err != nil {
			t.Fatal(err)
		}
		if gotAda != legacyAda {
			t.Fatalf("GOMAXPROCS %d: shared AdaBoost CV %+v != legacy %+v", procs, gotAda, legacyAda)
		}
	}
}

// TestCrossValidateSharedErrors mirrors the legacy validation behavior.
func TestCrossValidateSharedErrors(t *testing.T) {
	ds := synthDataset(t, 10, 30, 1)
	if _, err := CrossValidateSVM(ds, DefaultSVMConfig(), CVConfig{Folds: 1, Seed: 1}); err == nil {
		t.Error("k=1 must error")
	}
	tiny := synthDataset(t, 2, 3, 2)
	if _, err := CrossValidateAdaBoost(tiny, DefaultAdaBoostConfig(), CVConfig{Folds: 10, Seed: 1}); err == nil {
		t.Error("k larger than dataset must error")
	}
}
