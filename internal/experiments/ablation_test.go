package experiments

// Ablation tests for the design choices DESIGN.md calls out: feature-set
// generality vs identifier randomization, eval-unpacking on/off, and
// chi-square selection vs no selection.

import (
	"math/rand"
	"testing"

	"adwars/internal/antiadblock"
	"adwars/internal/features"
	"adwars/internal/ml"
)

// buildAblationCorpus generates a corpus where every anti-adblock script
// has fully randomized identifiers and literals per sample.
func buildAblationCorpus(seed int64, n int, pack float64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	opt := antiadblock.GenOptions{PackProbability: pack}
	c := &Corpus{}
	for i := 0; i < n; i++ {
		v := antiadblock.Catalog[i%len(antiadblock.Catalog)]
		c.Positives = append(c.Positives,
			antiadblock.VendorScript(v, "http://pub.example/ads.js", "n1", rng, opt))
		c.Negatives = append(c.Negatives,
			antiadblock.RandomBenignScript(rng, opt),
			antiadblock.RandomBenignScript(rng, opt),
			antiadblock.RandomBenignScript(rng, opt))
	}
	return c
}

// cvAccuracy cross-validates one configuration and returns TP/FP rates.
func cvAccuracy(t *testing.T, c *Corpus, set features.Set, topK int) (tp, fp float64) {
	t.Helper()
	ds, err := buildDataset(c, set, topK)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := ml.CrossValidateSVM(ds, ml.DefaultSVMConfig(), ml.CVConfig{Folds: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return conf.TPRate(), conf.FPRate()
}

// TestAblationKeywordSetSurvivesRandomization verifies §5's design
// argument: keyword features are robust to identifier/literal
// randomization, so they classify heavily-randomized corpora well.
func TestAblationKeywordSetSurvivesRandomization(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation CV is slow")
	}
	c := buildAblationCorpus(1, 60, 0)
	tpKw, fpKw := cvAccuracy(t, c, features.SetKeyword, 1000)
	if tpKw < 0.9 || fpKw > 0.1 {
		t.Errorf("keyword set should survive randomization: TP %.2f FP %.2f", tpKw, fpKw)
	}
	// The literal set still works here because literal *values* (bait
	// class names, style strings) carry signal; the keyword set must be
	// at least competitive.
	tpLit, _ := cvAccuracy(t, c, features.SetLiteral, 1000)
	if tpKw+0.05 < tpLit-0.25 {
		t.Errorf("keyword TP %.2f unexpectedly far below literal TP %.2f", tpKw, tpLit)
	}
}

// TestAblationUnpackingMatters verifies the unpacking pass: packed
// scripts classified by a model trained on unpacked ones only work
// because ParseAndUnpack recovers the payload.
func TestAblationUnpackingMatters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train := buildAblationCorpus(2, 50, 0) // unpacked training corpus
	ds, err := buildDataset(train, features.SetKeyword, 1000)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ml.TrainSVM(ds, nil, ml.DefaultSVMConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Fully packed test scripts.
	vocab := features.NewVocab(ds.Vocab)
	packed := antiadblock.GenOptions{PackProbability: 1}
	detected := 0
	const n = 30
	for i := 0; i < n; i++ {
		v := antiadblock.Catalog[i%len(antiadblock.Catalog)]
		src := antiadblock.VendorScript(v, "http://pub.example/ads.js", "n2", rng, packed)
		fs, err := features.ExtractSource(src, features.SetKeyword)
		if err != nil {
			t.Fatal(err)
		}
		if model.Predict(vocab.Project(fs)) > 0 {
			detected++
		}
	}
	if float64(detected)/n < 0.8 {
		t.Errorf("only %d/%d packed scripts detected; unpacking should make them transparent", detected, n)
	}
}

// TestAblationChiSquareBeatsNoSelection verifies that the chi-square
// budget keeps accuracy while shrinking the feature space drastically.
func TestAblationChiSquareBeatsNoSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation CV is slow")
	}
	c := buildAblationCorpus(3, 60, 0.1)
	full, err := buildDataset(c, features.SetAll, 1<<30) // effectively no top-k cut
	if err != nil {
		t.Fatal(err)
	}
	small, err := buildDataset(c, features.SetAll, 25)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumFeatures() >= full.NumFeatures() {
		t.Fatalf("selection did not shrink: %d vs %d", small.NumFeatures(), full.NumFeatures())
	}
	confFull, err := ml.CrossValidateSVM(full, ml.DefaultSVMConfig(), ml.CVConfig{Folds: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	confSmall, err := ml.CrossValidateSVM(small, ml.DefaultSVMConfig(), ml.CVConfig{Folds: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if confSmall.TPRate() < confFull.TPRate()-0.1 {
		t.Errorf("top-100 chi-square TP %.2f collapsed vs full TP %.2f",
			confSmall.TPRate(), confFull.TPRate())
	}
}

// TestAblationAdaBoostRounds verifies boosting is bounded and that more
// rounds never destroy training accuracy on an imbalanced corpus.
func TestAblationAdaBoostRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation training is slow")
	}
	c := buildAblationCorpus(5, 40, 0)
	ds, err := buildDataset(c, features.SetKeyword, 500)
	if err != nil {
		t.Fatal(err)
	}
	prevTP := -1.0
	for _, rounds := range []int{1, 5, 10} {
		cfg := ml.DefaultAdaBoostConfig()
		cfg.Rounds = rounds
		model, err := ml.TrainAdaBoost(ds, cfg, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		tp := ml.Evaluate(model, ds).TPRate()
		if tp < prevTP-0.05 {
			t.Errorf("training TP fell from %.2f to %.2f at %d rounds", prevTP, tp, rounds)
		}
		prevTP = tp
	}
}
