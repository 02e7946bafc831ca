package ml

import (
	"math/rand"
	"runtime"
	"testing"

	"adwars/internal/features"
)

func TestAdaBoostBeatsOrMatchesSVMOnImbalanced(t *testing.T) {
	ds := synthDataset(t, 30, 300, 11) // ~10:1 imbalance like the paper
	svm, err := TrainSVM(ds, nil, DefaultSVMConfig(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	boost, err := TrainAdaBoost(ds, DefaultAdaBoostConfig(), rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	cSVM := Evaluate(svm, ds)
	cBoost := Evaluate(boost, ds)
	if cBoost.TPRate()+1e-9 < cSVM.TPRate()-0.05 {
		t.Fatalf("AdaBoost TP %.3f clearly below SVM TP %.3f", cBoost.TPRate(), cSVM.TPRate())
	}
	if cBoost.TPRate() < 0.9 {
		t.Fatalf("AdaBoost training TP rate %.3f too low", cBoost.TPRate())
	}
}

func TestAdaBoostRoundsBounded(t *testing.T) {
	ds := synthDataset(t, 20, 60, 12)
	cfg := DefaultAdaBoostConfig()
	cfg.Rounds = 5
	b, err := TrainAdaBoost(ds, cfg, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if b.Rounds() < 1 || b.Rounds() > 5 {
		t.Fatalf("rounds = %d, want 1..5", b.Rounds())
	}
}

func TestAdaBoostConfigValidation(t *testing.T) {
	ds := synthDataset(t, 5, 15, 13)
	cfg := DefaultAdaBoostConfig()
	cfg.Rounds = 0
	if _, err := TrainAdaBoost(ds, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("rounds=0 must error")
	}
	empty := &features.Dataset{}
	if _, err := TrainAdaBoost(empty, DefaultAdaBoostConfig(), rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty dataset must error")
	}
}

// TestAdaBoostChecksBeforeGram: a set TrainAdaBoost refuses is refused
// before the n² Gram matrix is built — 32 MB at 2 000 samples.
func TestAdaBoostChecksBeforeGram(t *testing.T) {
	const n = 2000
	oneClass := &features.Dataset{Samples: make([]features.Sample, n), Labels: make([]int, n)}
	for i := range oneClass.Samples {
		oneClass.Samples[i] = features.Sample{int32(i % 7)}
		oneClass.Labels[i] = 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := TrainAdaBoost(oneClass, DefaultAdaBoostConfig(), rand.New(rand.NewSource(1)))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a one-class set trained")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("refusing %d samples allocated %d bytes: the Gram matrix was built first", n, grew)
	}
}

// TestCrossValidateChecksBeforeGram: fold counts the cross-validation
// refuses are refused before the n² Gram matrix over the whole set is built,
// through either entry point.
func TestCrossValidateChecksBeforeGram(t *testing.T) {
	const n = 2000
	ds := &features.Dataset{Samples: make([]features.Sample, n), Labels: make([]int, n)}
	for i := range ds.Samples {
		ds.Samples[i] = features.Sample{int32(i % 7)}
		ds.Labels[i] = 1 - 2*(i%2)
	}
	for name, cv := range map[string]func() error{
		"svm": func() error {
			_, err := CrossValidateSVM(ds, DefaultSVMConfig(), CVConfig{Folds: 1, Seed: 1})
			return err
		},
		"adaboost": func() error {
			_, err := CrossValidateAdaBoost(ds, DefaultAdaBoostConfig(), CVConfig{Folds: 1, Seed: 1})
			return err
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := cv()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: one fold was accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: refusing one fold of %d samples allocated %d bytes: the Gram matrix was built first", name, n, grew)
		}
	}
}

func TestAdaBoostDeterministic(t *testing.T) {
	ds := synthDataset(t, 15, 45, 14)
	b1, err := TrainAdaBoost(ds, DefaultAdaBoostConfig(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := TrainAdaBoost(ds, DefaultAdaBoostConfig(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ds.Samples {
		if b1.Predict(s) != b2.Predict(s) {
			t.Fatalf("sample %d: nondeterministic", i)
		}
	}
}

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 90, FN: 10, FP: 5, TN: 95}
	if got := c.TPRate(); got != 0.9 {
		t.Errorf("TPRate = %v", got)
	}
	if got := c.FPRate(); got != 0.05 {
		t.Errorf("FPRate = %v", got)
	}
	var zero Confusion
	if zero.TPRate() != 0 || zero.FPRate() != 0 {
		t.Error("zero confusion must not divide by zero")
	}
}

func TestConfusionObserveAndAdd(t *testing.T) {
	var c Confusion
	c.Observe(1, 1)
	c.Observe(1, -1)
	c.Observe(-1, 1)
	c.Observe(-1, -1)
	if c.TP != 1 || c.FN != 1 || c.FP != 1 || c.TN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	var sum Confusion
	sum.Add(c)
	sum.Add(c)
	if sum.TP != 2 || sum.TN != 2 {
		t.Fatalf("sum = %+v", sum)
	}
}

func TestCrossValidate(t *testing.T) {
	ds := synthDataset(t, 30, 90, 15)
	c, err := CrossValidateSVM(ds, DefaultSVMConfig(), CVConfig{Folds: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	total := c.TP + c.FN + c.FP + c.TN
	if total != ds.Len() {
		t.Fatalf("CV covered %d samples, want %d", total, ds.Len())
	}
	if c.TPRate() < 0.8 {
		t.Fatalf("CV TP rate %.3f too low on separable data", c.TPRate())
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	ds := synthDataset(t, 20, 60, 16)
	c1, err := CrossValidateSVM(ds, DefaultSVMConfig(), CVConfig{Folds: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CrossValidateSVM(ds, DefaultSVMConfig(), CVConfig{Folds: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("CV not deterministic: %v vs %v", c1, c2)
	}
}

func TestCrossValidateErrors(t *testing.T) {
	ds := synthDataset(t, 5, 15, 17)
	if _, err := CrossValidateSVM(ds, DefaultSVMConfig(), CVConfig{Folds: 1, Seed: 1}); err == nil {
		t.Error("k=1 must error")
	}
	tiny := ds.Subset([]int{0, 1})
	if _, err := CrossValidateSVM(tiny, DefaultSVMConfig(), CVConfig{Folds: 10, Seed: 1}); err == nil {
		t.Error("k greater than samples must error")
	}
}

func TestStratifiedFoldsPreserveImbalance(t *testing.T) {
	ds := synthDataset(t, 20, 200, 18)
	folds := stratifiedFolds(ds, 10, rand.New(rand.NewSource(1)))
	for f, idx := range folds {
		pos := 0
		for _, i := range idx {
			if ds.Labels[i] > 0 {
				pos++
			}
		}
		if pos != 2 {
			t.Errorf("fold %d has %d positives, want 2", f, pos)
		}
	}
}
