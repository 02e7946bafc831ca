package features

import (
	"fmt"
	"slices"
)

// SetFromString parses a feature-set name ("all", "literal", "keyword") as
// printed by Set.String. Model snapshots store the set by name, so the
// serving layer round-trips through this.
func SetFromString(name string) (Set, error) {
	for _, s := range Sets {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("features: unknown feature set %q", name)
}

// Vocab is a frozen feature vocabulary detached from any Dataset: the
// selected feature names in index order plus the reverse index. The serving
// layer projects incoming scripts through a Vocab loaded from a model
// snapshot; Dataset.Project goes through the same Vocab.Project, so a
// served model sees exactly the vectors it was trained on.
type Vocab struct {
	names []string
	index map[string]int
}

// NewVocab builds a Vocab from feature names in index order. The slice is
// copied, so the Vocab is immutable and safe for concurrent use.
func NewVocab(names []string) *Vocab {
	v := &Vocab{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
	}
	for i, f := range v.names {
		v.index[f] = i
	}
	return v
}

// Vocabulary returns the dataset's vocabulary as a standalone Vocab (shares
// the underlying read-only storage).
func (d *Dataset) Vocabulary() *Vocab {
	return &Vocab{names: d.Vocab, index: d.index}
}

// Len returns the vocabulary size.
func (v *Vocab) Len() int { return len(v.names) }

// Names returns the feature names in index order. The returned slice must
// not be modified.
func (v *Vocab) Names() []string { return v.names }

// Project maps a script's feature set onto the vocabulary, ignoring unseen
// features (they carry no weight at test time).
func (v *Vocab) Project(fs map[string]bool) Sample {
	s := make(Sample, 0, min(len(fs), len(v.names)))
	for f := range fs {
		if i, ok := v.index[f]; ok {
			s = append(s, int32(i))
		}
	}
	slices.Sort(s)
	return s
}
