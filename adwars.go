// Package adwars reproduces "The Ad Wars: Retrospective Measurement and
// Analysis of Anti-Adblock Filter Lists" (Iqbal, Shafiq, Qian — IMC 2017)
// as a Go library: an Adblock-Plus filter rule engine with revisioned list
// histories, a Wayback-Machine-style retrospective measurement pipeline
// over a synthetic web, and a static-analysis + machine-learning detector
// for anti-adblock JavaScript.
//
// The package is a facade over the internal packages; see DESIGN.md for
// the system inventory and EXPERIMENTS.md for the paper-vs-measured
// record. Typical entry points:
//
//	world := adwars.NewWorld(adwars.ScaledWorldConfig(42, 20))
//	lists := adwars.GenerateFilterLists(world, 42)
//	lab   := adwars.NewLab(adwars.ScaledWorldConfig(42, 20))
//	det, _ := adwars.TrainDetector(positives, negatives, adwars.DefaultDetectorConfig(42))
package adwars

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"adwars/internal/abp"
	"adwars/internal/experiments"
	"adwars/internal/features"
	"adwars/internal/listgen"
	"adwars/internal/ml"
	"adwars/internal/simworld"
)

// Filter rule engine re-exports.
type (
	// FilterRule is one parsed Adblock Plus rule.
	FilterRule = abp.Rule
	// FilterList is a compiled, matchable rule set.
	FilterList = abp.List
	// ListHistory is a revisioned filter list.
	ListHistory = abp.History
	// HTTPRequest is a request the matcher evaluates.
	HTTPRequest = abp.Request
)

// ParseFilterRule parses one filter list line.
func ParseFilterRule(line string) (*FilterRule, error) { return abp.Parse(line) }

// CompileFilterList parses a filter list body into a matchable list.
func CompileFilterList(name, body string) (*FilterList, []error) {
	return abp.ParseAndBuild(name, body)
}

// World / lists / experiments re-exports.
type (
	// World is the synthetic web the measurements run against.
	World = simworld.World
	// WorldConfig parameterizes the world.
	WorldConfig = simworld.Config
	// FilterLists bundles the generated list histories.
	FilterLists = listgen.Lists
	// Lab runs the paper's experiments.
	Lab = experiments.Lab
)

// ScaledWorldConfig shrinks the world by factor k for faster runs.
func ScaledWorldConfig(seed int64, k int) WorldConfig { return simworld.Scaled(seed, k) }

// NewWorld generates the synthetic web.
func NewWorld(cfg WorldConfig) *World { return simworld.New(cfg) }

// GenerateFilterLists derives the AAK / EasyList / AWRL histories from the
// world's ground truth through the curation model.
func GenerateFilterLists(w *World, seed int64) *FilterLists { return listgen.Generate(w, seed) }

// NewLab builds a world plus lists ready to run experiments.
func NewLab(cfg WorldConfig) *Lab { return experiments.NewLab(cfg) }

// DetectorConfig parameterizes TrainDetector.
type DetectorConfig struct {
	// FeatureSet picks the context:text variant; the paper's best
	// configuration is the keyword set.
	FeatureSet features.Set
	// TopK is the chi-square feature budget (1,000 in the best config).
	TopK int
	// Boost enables AdaBoost over the SVM (the paper's headline model).
	Boost bool
	// Seed fixes all randomized steps.
	Seed int64
}

// DefaultDetectorConfig is the paper's best configuration: AdaBoost + SVM
// on the top-1K keyword features.
func DefaultDetectorConfig(seed int64) DetectorConfig {
	return DetectorConfig{FeatureSet: features.SetKeyword, TopK: 1000, Boost: true, Seed: seed}
}

// Detector classifies JavaScript sources as anti-adblock or benign using
// static AST features, per §5 of the paper.
type Detector struct {
	cfg   DetectorConfig
	ds    *features.Dataset
	model ml.Classifier
}

// TrainDetector trains a detector from labeled script sources. Scripts
// that fail to parse are skipped, as in the paper's corpus construction.
func TrainDetector(antiAdblock, benign []string, cfg DetectorConfig) (*Detector, error) {
	var sets []map[string]bool
	var labels []int
	add := func(srcs []string, label int) {
		for _, src := range srcs {
			fs, err := features.ExtractSource(src, cfg.FeatureSet)
			if err != nil {
				continue
			}
			sets = append(sets, fs)
			labels = append(labels, label)
		}
	}
	add(antiAdblock, +1)
	add(benign, -1)
	if len(sets) == 0 {
		return nil, fmt.Errorf("adwars: no parseable training scripts")
	}
	ds, err := features.Build(sets, labels)
	if err != nil {
		return nil, err
	}
	if cfg.TopK > 0 {
		ds = ds.SelectPipeline(cfg.TopK)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var model ml.Classifier
	if cfg.Boost {
		model, err = ml.TrainAdaBoost(ds, ml.DefaultAdaBoostConfig(), rng)
	} else {
		model, err = ml.TrainSVM(ds, nil, ml.DefaultSVMConfig(), rng)
	}
	if err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, ds: ds, model: model}, nil
}

// IsAntiAdblock classifies one JavaScript source. It returns an error when
// the script cannot be parsed (the online deployment skips such scripts).
func (d *Detector) IsAntiAdblock(src string) (bool, error) {
	sample, err := d.ds.Vocabulary().ProjectSource(src, d.cfg.FeatureSet)
	if err != nil {
		return false, err
	}
	return d.model.Predict(sample) > 0, nil
}

// NumFeatures returns the trained detector's feature-space size.
func (d *Detector) NumFeatures() int { return d.ds.NumFeatures() }

// detectorJSON is the stable wire form of a trained detector: the
// configuration, the feature vocabulary, and the model — everything an
// adblocker needs to ship the classifier (§5's online deployment).
type detectorJSON struct {
	Config     DetectorConfig `json:"config"`
	Vocabulary []string       `json:"vocabulary"`
	SVM        *ml.SVM        `json:"svm,omitempty"`
	Boost      *ml.AdaBoost   `json:"adaboost,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (d *Detector) MarshalJSON() ([]byte, error) {
	out := detectorJSON{Config: d.cfg, Vocabulary: d.ds.Vocab}
	switch m := d.model.(type) {
	case *ml.AdaBoost:
		out.Boost = m
	case *ml.SVM:
		out.SVM = m
	default:
		return nil, fmt.Errorf("adwars: unserializable model %T", d.model)
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Detector) UnmarshalJSON(data []byte) error {
	var j detectorJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	d.cfg = j.Config
	// Rebuild a vocabulary-only dataset for feature projection. The
	// saved vocabulary is sorted (features.Build sorts), so the restored
	// name→index mapping is identical.
	d.ds = restoreVocabulary(j.Vocabulary)
	switch {
	case j.Boost != nil:
		d.model = j.Boost
	case j.SVM != nil:
		d.model = j.SVM
	default:
		return fmt.Errorf("adwars: detector JSON carries no model")
	}
	return nil
}

// restoreVocabulary builds a projection-only dataset from a saved
// vocabulary.
func restoreVocabulary(vocab []string) *features.Dataset {
	sets := make([]map[string]bool, 1)
	sets[0] = make(map[string]bool, len(vocab))
	for _, f := range vocab {
		sets[0][f] = true
	}
	ds, err := features.Build(sets, []int{1})
	if err != nil {
		panic("adwars: vocabulary restore cannot fail: " + err.Error())
	}
	return ds
}
