package features

import (
	"fmt"
	"math/bits"
	"slices"

	"adwars/internal/jsast"
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
// snapshot, and NewVocab(ds.Vocab).Project of a training script is the
// sample Build made of it, so a served model sees exactly the vectors it
// was trained on.
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

// Len returns the vocabulary size.
func (v *Vocab) Len() int { return len(v.names) }

// Distinct returns how many different names the vocabulary holds: fewer
// than Len when a name repeats, which NewVocab indexes at its last position.
func (v *Vocab) Distinct() int { return len(v.index) }

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

// ProjectSource parses (and unpacks) JavaScript source and projects it onto
// the vocabulary: everything between a script and the sample a model scores.
// Scripts that fail to parse yield a nil sample and the parse error.
func (v *Vocab) ProjectSource(src string, set Set) (Sample, error) {
	prog, _, err := jsast.ParseAndUnpack(src)
	if err != nil {
		return nil, err
	}
	return v.ProjectProgram(prog, set), nil
}

// ProjectProgram is Project(Extract(prog, set)) without the feature map in
// between: the feature walk looks each (context, text) pair up in the
// vocabulary as it goes and marks the hit in a bitset, which read out in
// index order is the sample — nothing to build, nothing to sort. A script
// emits a few hundred pairs and a vocabulary of the paper's size holds a
// few dozen of them, so the strings Extract would make for the rest were
// made to be thrown away. This is the inference path: /v1/classify, its
// batch form and the Detector all classify through it.
func (v *Vocab) ProjectProgram(prog *jsast.Program, set Set) Sample {
	var stack [32]uint64 // vocabularies up to 2048 features need no heap
	hit := stack[:]
	if words := (len(v.names) + 63) / 64; words > len(stack) {
		hit = make([]uint64, words)
	}
	// The map is indexed by string(key), a conversion the compiler does
	// not allocate for, so a lookup costs one hash of the pair's bytes.
	var buf [128]byte
	walk(prog, set, func(context, text string) {
		key := append(buf[:0], context...)
		key = append(key, ':')
		key = append(key, text...)
		if i, ok := v.index[string(key)]; ok {
			hit[i>>6] |= 1 << (i & 63)
		}
	})
	n := 0
	for _, w := range hit {
		n += bits.OnesCount64(w)
	}
	s := make(Sample, 0, n)
	for wi, w := range hit {
		for ; w != 0; w &= w - 1 {
			s = append(s, int32(wi<<6+bits.TrailingZeros64(w)))
		}
	}
	return s
}
