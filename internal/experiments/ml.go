package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"adwars/internal/fanout"
	"adwars/internal/features"
	"adwars/internal/jsast"
	"adwars/internal/ml"
)

// PipelineConfig is empty and ignored: every §5 fan-out (extraction, the
// Gram fill, the folds, the live test's scoring) runs one worker per core.
// TrainHeadlineModel and LiveModelTest still take it only because the
// benchmark module (bench/, changed on its own) passes it; ROADMAP item
// 10(a)'s seam deletes it.
type PipelineConfig struct{}

// ---- Table 2: example features ----

// Table2Row is one extracted feature with the feature sets it belongs to.
type Table2Row struct {
	Feature string
	Sets    []string
}

// Table2 extracts features from a BlockAdBlock-style script (Code 5) and
// reports, for a sample of features, which feature sets contain them —
// the shape of Table 2.
func Table2(script string) ([]Table2Row, error) {
	prog, _, err := jsast.ParseAndUnpack(script)
	if err != nil {
		return nil, err
	}
	inSet := map[features.Set]map[string]bool{}
	for _, s := range features.Sets {
		inSet[s] = features.Extract(prog, s)
	}
	var names []string
	for f := range inSet[features.SetAll] {
		names = append(names, f)
	}
	sort.Strings(names)
	var rows []Table2Row
	for _, f := range names {
		var sets []string
		for _, s := range features.Sets {
			if inSet[s][f] {
				sets = append(sets, s.String())
			}
		}
		rows = append(rows, Table2Row{Feature: f, Sets: sets})
	}
	return rows, nil
}

// RenderTable2 prints a digest of Table 2: the geometry-probe and literal
// features the paper highlights, when present.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — extracted features (total %d)\n", len(rows))
	highlights := []string{
		"MemberExpression:", "Literal:abp", "Literal:0", "Literal:hidden",
		"Identifier:clientHeight", "Identifier:clientWidth",
		"Identifier:offsetHeight", "Identifier:offsetWidth",
	}
	printed := 0
	for _, r := range rows {
		show := false
		for _, h := range highlights {
			if strings.HasPrefix(r.Feature, h) {
				show = true
				break
			}
		}
		if show && printed < 24 {
			fmt.Fprintf(&b, "%-48s %s\n", r.Feature, strings.Join(r.Sets, ", "))
			printed++
		}
	}
	return b.String()
}

// ---- Table 3: classifier accuracy ----

// Table3Row is one (feature set, #features, classifier) configuration's
// 10-fold cross-validated accuracy.
type Table3Row struct {
	Classifier  string
	FeatureSet  features.Set
	NumFeatures int
	TPRate      float64
	FPRate      float64
}

// Table3Config parameterizes the Table 3 sweep.
type Table3Config struct {
	// TopK are the feature counts per feature set (the paper sweeps
	// {100, 1K, 5K/10K}).
	TopK []int
	// Folds is the cross-validation fold count (10 in the paper).
	Folds int
	// Seed fixes fold assignment and SMO randomness.
	Seed int64
	// MaxSamples optionally subsamples the corpus to bound runtime
	// (0 = use everything). The sweep's largest Gram matrix is
	// MaxSamples² float64s (capped corpus), 4 081² ≈ 133 MB for the
	// uncapped headline corpus at -scale 1 -seed 42.
	MaxSamples int
}

// Corpus is the labeled script corpus of §5.
type Corpus struct {
	Positives, Negatives []string
}

// Imbalance returns negatives per positive.
func (c *Corpus) Imbalance() float64 {
	if len(c.Positives) == 0 {
		return 0
	}
	return float64(len(c.Negatives)) / float64(len(c.Positives))
}

// trim enforces the paper's ~10:1 class imbalance and an optional total
// cap, deterministically.
func (c *Corpus) trim(maxSamples int, seed int64) *Corpus {
	pos := append([]string(nil), c.Positives...)
	neg := append([]string(nil), c.Negatives...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	if maxSamples > 0 && len(pos)+len(neg) > maxSamples {
		p := maxSamples / 11
		if p < 10 {
			p = 10
		}
		if p > len(pos) {
			p = len(pos)
		}
		pos = pos[:p]
	}
	if want := 10 * len(pos); len(neg) > want {
		neg = neg[:want]
	}
	return &Corpus{Positives: pos, Negatives: neg}
}

// buildDatasetRaw extracts features for the corpus under each of the given
// feature sets (no selection), parsing each script once, and returns one
// dataset per set. Extraction is the expensive step, so callers sweeping
// several feature budgets select per budget from the one raw dataset.
// Extraction fans out one worker per core; unparseable scripts drop out of
// every set (as in the paper) and the surviving sets are compacted in
// corpus order, so each dataset is identical to a sequential ExtractSource
// loop under its set.
func buildDatasetRaw(c *Corpus, sets []features.Set) ([]*features.Dataset, error) {
	srcs := make([]string, 0, len(c.Positives)+len(c.Negatives))
	srcs = append(srcs, c.Positives...)
	srcs = append(srcs, c.Negatives...)
	fsets, errs, err := features.ExtractAll(context.Background(), srcs, sets)
	if err != nil {
		return nil, err
	}
	labels := make([]int, 0, len(srcs))
	for i := range srcs {
		if errs[i] != nil {
			continue // unparseable scripts drop out, as in the paper
		}
		if i < len(c.Positives) {
			labels = append(labels, +1)
		} else {
			labels = append(labels, -1)
		}
	}
	out := make([]*features.Dataset, len(sets))
	for s := range sets {
		kept := make([]map[string]bool, 0, len(labels))
		for i, fs := range fsets[s] {
			if errs[i] == nil {
				kept = append(kept, fs)
			}
		}
		fsets[s] = nil // the maps die with kept once this set is built
		if out[s], err = features.Build(kept, labels); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildDataset extracts features for the corpus under one feature set and
// applies the paper's selection pipeline.
func buildDataset(c *Corpus, set features.Set, topK int) (*features.Dataset, error) {
	raw, err := buildDatasetRaw(c, []features.Set{set})
	if err != nil {
		return nil, err
	}
	return raw[0].SelectPipeline(topK), nil
}

// Table3 runs the paper's classifier sweep: {all, literal, keyword} ×
// TopK × {SVM, AdaBoost+SVM} with stratified k-fold cross-validation.
//
// Budgets past a set's vocabulary select the whole vocabulary, so every
// budget at or above it gives the same dataset and, under the same seeded
// folds, the same two rows. Each (set, min(k, vocabulary)) pair is
// cross-validated once; a later budget with the same pair repeats its
// rows. Every budget must be at least 1.
func Table3(c *Corpus, cfg Table3Config) ([]Table3Row, error) {
	if len(cfg.TopK) == 0 || slices.Min(cfg.TopK) < 1 {
		return nil, fmt.Errorf("experiments: feature budgets %v, want one or more, each at least 1", cfg.TopK)
	}
	corpus := c.trim(cfg.MaxSamples, cfg.Seed)
	if len(corpus.Positives) < cfg.Folds {
		return nil, fmt.Errorf("experiments: only %d positives for %d folds",
			len(corpus.Positives), cfg.Folds)
	}
	raws, err := buildDatasetRaw(corpus, features.Sets)
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for s, set := range features.Sets {
		base := raws[s].FilterVariance(0.01).DeduplicateColumns()
		done := map[int][]Table3Row{} // effective budget → its two rows
		for _, k := range cfg.TopK {
			eff := min(k, base.NumFeatures())
			pair, ok := done[eff]
			if !ok {
				ds := base.SelectTopChiSquare(k)
				boosted, err := crossValidate(ds, cfg.Folds, cfg.Seed, true)
				if err != nil {
					return nil, err
				}
				plain, err := crossValidate(ds, cfg.Folds, cfg.Seed, false)
				if err != nil {
					return nil, err
				}
				pair = []Table3Row{
					table3Row("AdaBoost + SVM", set, ds, boosted),
					table3Row("SVM", set, ds, plain),
				}
				done[eff] = pair
			}
			rows = append(rows, pair...)
		}
	}
	return rows, nil
}

func table3Row(name string, set features.Set, ds *features.Dataset, conf ml.Confusion) Table3Row {
	return Table3Row{
		Classifier:  name,
		FeatureSet:  set,
		NumFeatures: ds.NumFeatures(),
		TPRate:      conf.TPRate(),
		FPRate:      conf.FPRate(),
	}
}

// crossValidate runs one Table 3 row's shared-Gram cross-validation.
func crossValidate(ds *features.Dataset, folds int, seed int64, boost bool) (ml.Confusion, error) {
	cv := ml.CVConfig{Folds: folds, Seed: seed}
	if boost {
		return ml.CrossValidateAdaBoost(ds, ml.DefaultAdaBoostConfig(), cv)
	}
	return ml.CrossValidateSVM(ds, ml.DefaultSVMConfig(), cv)
}

// RenderTable3 prints Table 3's rows.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — classifier accuracy (10-fold CV)\n")
	fmt.Fprintf(&b, "%-16s %-9s %10s %9s %9s\n",
		"Classifier", "Features", "#Features", "TP rate", "FP rate")
	cur := features.Set(-1)
	for _, r := range rows {
		if r.FeatureSet != cur {
			fmt.Fprintf(&b, "-- feature set: %s --\n", r.FeatureSet)
			cur = r.FeatureSet
		}
		fmt.Fprintf(&b, "%-16s %-9s %10d %8.1f%% %8.1f%%\n",
			r.Classifier, r.FeatureSet, r.NumFeatures,
			100*r.TPRate, 100*r.FPRate)
	}
	return b.String()
}

// BestRow returns the row with the best TP−FP margin (the paper's
// headline is AdaBoost+SVM, keyword set, top-1K).
func BestRow(rows []Table3Row) Table3Row {
	best := rows[0]
	for _, r := range rows[1:] {
		if r.TPRate-r.FPRate > best.TPRate-best.FPRate {
			best = r
		}
	}
	return best
}

// ---- §5 live-web model test ----

// LiveTestResult is the out-of-sample TP rate on live-crawl scripts.
type LiveTestResult struct {
	Scripts  int
	Detected int
	TPRate   float64
}

// headlineTopK is the feature budget of the paper's headline configuration
// (AdaBoost+SVM over keyword features).
const headlineTopK = 1000

// TrainHeadlineModel trains the paper's headline configuration on the full
// retrospective corpus, trimmed to its 10:1 imbalance, and freezes it as a
// serving snapshot. This is the model adwars-serve loads.
func TrainHeadlineModel(train *Corpus, seed int64, _ PipelineConfig) (*ml.ModelSnapshot, error) {
	return TrainModel(train.trim(0, seed), seed)
}

// TrainModel trains the paper's headline configuration — AdaBoost over
// RBF-SVM weak learners, keyword features, top-1K chi-square selection — on
// the corpus exactly as given, and freezes it as a serving snapshot (model +
// vocabulary + provenance). Unparseable scripts drop out.
func TrainModel(corpus *Corpus, seed int64) (*ml.ModelSnapshot, error) {
	ds, err := buildDataset(corpus, features.SetKeyword, headlineTopK)
	if err != nil {
		return nil, err
	}
	model, err := ml.TrainAdaBoost(ds, ml.DefaultAdaBoostConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return &ml.ModelSnapshot{
		FeatureSet: features.SetKeyword.String(),
		Vocab:      append([]string(nil), ds.Vocab...),
		Model:      model,
		Meta: ml.ModelMeta{
			Positives: len(corpus.Positives),
			Negatives: len(corpus.Negatives),
			TopK:      headlineTopK,
			Seed:      seed,
		},
	}, nil
}

// LiveModelTest trains the headline configuration (AdaBoost+SVM, keyword
// features, top-1K) on the retrospective corpus and classifies the
// anti-adblock scripts collected from live sites outside the training
// population — the paper's live-web TP experiment. Each script is scored as
// /v1/classify and adwars.Detector score it (Vocab.ProjectSource under the
// snapshot's projection), one script per slot under its own recover
// boundary; scoring fans out, the tally folds back in input order.
func LiveModelTest(train *Corpus, liveScripts []LiveScript, excludeTopN int, seed int64, _ PipelineConfig) (*LiveTestResult, error) {
	snap, err := TrainHeadlineModel(train, seed, PipelineConfig{})
	if err != nil {
		return nil, err
	}
	set, vocab, err := snap.Projection()
	if err != nil {
		return nil, err
	}
	eligible := eligibleLiveScripts(liveScripts, excludeTopN)
	detected := make([]bool, len(eligible))
	errs := make([]error, len(eligible))
	fanout.ForEach(context.Background(), 0, len(eligible), func(i int) {
		errs[i] = features.RunIsolated(func() error {
			sample, err := vocab.ProjectSource(eligible[i], set)
			detected[i] = err == nil && snap.Model.Predict(sample) > 0
			return err
		})
	})
	res := &LiveTestResult{}
	for i := range eligible {
		if errs[i] != nil {
			continue
		}
		res.Scripts++
		if detected[i] {
			res.Detected++
		}
	}
	if res.Scripts > 0 {
		res.TPRate = float64(res.Detected) / float64(res.Scripts)
	}
	return res, nil
}

// eligibleLiveScripts is the live test's population: the sources of the
// live scripts in collection order, less the training population (sites
// ranked within the top excludeTopN, the paper's top 5K).
func eligibleLiveScripts(liveScripts []LiveScript, excludeTopN int) []string {
	eligible := make([]string, 0, len(liveScripts))
	for _, s := range liveScripts {
		if s.Rank > 0 && s.Rank <= excludeTopN {
			continue
		}
		eligible = append(eligible, s.Source)
	}
	return eligible
}

// Render prints the live-test headline.
func (r *LiveTestResult) Render() string {
	return fmt.Sprintf("§5 live model test — %d/%d live anti-adblock scripts detected (TP rate %.1f%%)\n",
		r.Detected, r.Scripts, 100*r.TPRate)
}
