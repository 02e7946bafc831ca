package ml

import (
	"encoding/json"
	"errors"
	"fmt"

	"adwars/internal/artifact"
	"adwars/internal/features"
)

// Model snapshots are the wire format between the offline training pipeline
// (adwars-detect -save-model) and the online serving layer (adwars-serve):
// the trained AdaBoost ensemble plus the selected vocabulary it was trained
// over, in one versioned file. The vocabulary travels with the model because
// a model is only meaningful against the exact feature indices it saw at
// training time.
//
// Every snapshot is sealed with an artifact integrity trailer (CRC64 +
// payload length), so torn writes and bit rot are detected at load instead
// of silently skewing decisions; a file without one is refused.

const (
	// ModelSnapshotFormat is the format tag every model snapshot carries.
	ModelSnapshotFormat = "adwars-model"
	// ModelSnapshotVersion is the one snapshot schema version this build
	// reads and writes. Readers reject any other instead of guessing.
	ModelSnapshotVersion = 2
)

// ErrSnapshotFormat reports a file that is not a model snapshot at all.
var ErrSnapshotFormat = errors.New("ml: not an adwars model snapshot")

// ErrSnapshotVersion reports a snapshot of any schema version but
// ModelSnapshotVersion.
var ErrSnapshotVersion = errors.New("ml: unsupported model snapshot version")

// ModelMeta records where a snapshot came from — training corpus shape and
// hyperparameters. Purely informational; serving never branches on it.
type ModelMeta struct {
	Positives int   `json:"positives,omitempty"`
	Negatives int   `json:"negatives,omitempty"`
	TopK      int   `json:"top_k,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
}

// ModelSnapshot is a trained ensemble frozen for serving: the classifier,
// the feature set it extracts ("keyword", "literal", "all"), and the
// selected vocabulary defining its feature indices.
type ModelSnapshot struct {
	FeatureSet string
	Vocab      []string
	Model      *AdaBoost
	Meta       ModelMeta
	// Version is the artifact version (artifact.Version) of the file the
	// snapshot was parsed from; empty for one trained in this process.
	Version string
}

// modelSnapshotJSON is the on-disk schema.
type modelSnapshotJSON struct {
	Format     string          `json:"format"`
	Version    int             `json:"version"`
	Classifier string          `json:"classifier"`
	FeatureSet string          `json:"feature_set"`
	Vocab      []string        `json:"vocab"`
	Model      json.RawMessage `json:"model"`
	Meta       ModelMeta       `json:"meta,omitempty"`
}

// MarshalModelSnapshot returns the snapshot in the current schema version,
// sealed with an integrity trailer.
func MarshalModelSnapshot(s *ModelSnapshot) ([]byte, error) {
	if s.Model == nil {
		return nil, fmt.Errorf("ml: snapshot has no model")
	}
	j, err := s.Model.toJSON()
	if err != nil {
		return nil, err
	}
	model, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	doc := modelSnapshotJSON{
		Format:     ModelSnapshotFormat,
		Version:    ModelSnapshotVersion,
		Classifier: "adaboost",
		FeatureSet: s.FeatureSet,
		Vocab:      s.Vocab,
		Model:      model,
		Meta:       s.Meta,
	}
	payload, err := json.Marshal(&doc)
	if err != nil {
		return nil, err
	}
	return artifact.Seal(append(payload, '\n')), nil
}

// ParseModelSnapshot parses a snapshot file held in memory, rejecting
// foreign files (ErrSnapshotFormat), other schema versions
// (ErrSnapshotVersion), and corrupt files — no trailer, bad checksum, torn
// length framing, or a model that parses but cannot be scored faithfully:
// unsorted or out-of-vocabulary support vectors, non-finite weights, a
// non-positive RBF width, and whatever Projection refuses (errors wrap
// artifact.ErrCorrupt).
func ParseModelSnapshot(data []byte) (*ModelSnapshot, error) {
	payload, version, err := artifact.OpenVersion(data)
	if err != nil {
		return nil, fmt.Errorf("ml: model snapshot: %w", err)
	}
	var doc modelSnapshotJSON
	if err := json.Unmarshal(payload, &doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotFormat, err)
	}
	if doc.Format != ModelSnapshotFormat {
		return nil, fmt.Errorf("%w: format %q", ErrSnapshotFormat, doc.Format)
	}
	if doc.Version != ModelSnapshotVersion {
		return nil, fmt.Errorf("%w: version %d (this build reads %d)",
			ErrSnapshotVersion, doc.Version, ModelSnapshotVersion)
	}
	if doc.Classifier != "adaboost" {
		return nil, fmt.Errorf("ml: unknown classifier %q in snapshot", doc.Classifier)
	}
	var mj adaBoostJSON
	if err := json.Unmarshal(doc.Model, &mj); err != nil {
		return nil, fmt.Errorf("ml: snapshot model: %w", err)
	}
	model, err := adaBoostFromJSON(&mj, len(doc.Vocab))
	if err != nil {
		return nil, fmt.Errorf("ml: snapshot model: %w", err)
	}
	if model.Rounds() == 0 {
		return nil, fmt.Errorf("ml: snapshot model has no rounds")
	}
	snap := &ModelSnapshot{
		FeatureSet: doc.FeatureSet,
		Vocab:      doc.Vocab,
		Model:      model,
		Meta:       doc.Meta,
		Version:    version,
	}
	if _, _, err := snap.Projection(); err != nil {
		return nil, fmt.Errorf("ml: model snapshot: %w", err)
	}
	return snap, nil
}

// Projection parses the snapshot's feature set and indexes its vocabulary:
// what turns a script into the sample its model scores. Every consumer of a
// snapshot (the serving layer, the library's Detector) prepares it here, so
// each refuses what the other refuses: an unknown feature set, an empty
// vocabulary, and one that repeats a name — a repeated name would index only
// its last position, and the features at the others could never fire.
func (s *ModelSnapshot) Projection() (features.Set, *features.Vocab, error) {
	set, err := features.SetFromString(s.FeatureSet)
	if err != nil {
		return 0, nil, invalidModel("%v", err)
	}
	if len(s.Vocab) == 0 {
		return 0, nil, invalidModel("empty vocabulary")
	}
	vocab := features.NewVocab(s.Vocab)
	if vocab.Distinct() != vocab.Len() {
		return 0, nil, invalidModel("vocabulary of %d names holds %d distinct ones", vocab.Len(), vocab.Distinct())
	}
	return set, vocab, nil
}

// SaveModelSnapshot writes the snapshot to path atomically (temp file +
// rename), so a reader never observes a torn snapshot mid-write — the
// hot-reload path depends on this.
func SaveModelSnapshot(path string, s *ModelSnapshot) error {
	data, err := MarshalModelSnapshot(s)
	if err != nil {
		return err
	}
	return artifact.WriteFileAtomic(path, data, 0o644)
}
