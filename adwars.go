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
//	det, _ := adwars.TrainDetector(positives, negatives, 42)
package adwars

import (
	"fmt"

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

// Detector classifies JavaScript sources as anti-adblock or benign using
// static AST features, per §5 of the paper. A trained detector is a model
// snapshot: MarshalBinary writes the sealed file adwars-serve -model loads,
// and UnmarshalBinary reads any file that server would.
type Detector struct {
	snap  *ml.ModelSnapshot
	set   features.Set
	vocab *features.Vocab
}

// TrainDetector trains the paper's best configuration — AdaBoost + SVM on
// the top-1K keyword features — from labeled script sources, with seed
// fixing every randomized step. Scripts that fail to parse are skipped, as
// in the paper's corpus construction.
func TrainDetector(antiAdblock, benign []string, seed int64) (*Detector, error) {
	snap, err := experiments.TrainModel(&experiments.Corpus{Positives: antiAdblock, Negatives: benign}, seed, experiments.PipelineConfig{})
	if err != nil {
		return nil, fmt.Errorf("adwars: %w", err)
	}
	d := &Detector{}
	if err := d.prepare(snap); err != nil {
		return nil, err
	}
	return d, nil
}

// prepare makes d classify with snap.
func (d *Detector) prepare(snap *ml.ModelSnapshot) error {
	set, vocab, err := snap.Projection()
	if err != nil {
		return err
	}
	*d = Detector{snap: snap, set: set, vocab: vocab}
	return nil
}

// IsAntiAdblock classifies one JavaScript source. It returns an error when
// the script cannot be parsed (the online deployment skips such scripts).
func (d *Detector) IsAntiAdblock(src string) (bool, error) {
	sample, err := d.vocab.ProjectSource(src, d.set)
	if err != nil {
		return false, err
	}
	return d.snap.Model.Predict(sample) > 0, nil
}

// NumFeatures returns the trained detector's feature-space size.
func (d *Detector) NumFeatures() int { return d.vocab.Len() }

// MarshalBinary implements encoding.BinaryMarshaler: the sealed model
// snapshot, in the one schema adwars-detect -save-model also writes.
func (d *Detector) MarshalBinary() ([]byte, error) { return ml.MarshalModelSnapshot(d.snap) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler, refusing what
// adwars-serve refuses (ml.ParseModelSnapshot).
func (d *Detector) UnmarshalBinary(data []byte) error {
	snap, err := ml.ParseModelSnapshot(data)
	if err != nil {
		return err
	}
	return d.prepare(snap)
}
