package features

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

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

	// The names again, indexed by their text for ProjectProgram, which
	// meets a text first and its contexts after. lead[c] has bit l set when
	// some text starting with byte c is l bytes long (63 standing for 63
	// and more), and texts[c] lists those texts. A text no name has is thus
	// mostly turned away by one bit test, and one that gets further is
	// found by comparing strings in a short list, never hashed.
	lead  [256]uint64
	texts [256][]vocabText
}

// vocabText is one text some name of the vocabulary has, with the names
// that have it. webAPI is IsWebAPIKeyword(text), which is also the answer
// for any name the walk made text from: a Web API keyword is short ASCII,
// so it is its own feature text, and a text cut or repaired from a longer
// or non-ASCII name is none.
type vocabText struct {
	text     string
	webAPI   bool
	contexts []vocabContext
}

// vocabContext is one name of the vocabulary under its text: the context
// it puts the text in, and the name's index.
type vocabContext struct {
	context string
	i       int
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
	v.indexTexts()
	return v
}

// leadBit is text's bit in lead[text[0]].
func leadBit(text string) uint64 { return 1 << min(len(text), 63) }

// indexTexts files every name a walk can produce under its text. The walk's
// contexts are node type names, which hold no ':', so a feature's context is
// everything before its first ':' and its text everything after; a name
// without a context or a text is never produced and is left out, and so is
// a repeated name at any position but its last, as in index.
func (v *Vocab) indexTexts() {
	at := map[string]int{} // a text's position in its texts list
	for i, f := range v.names {
		context, text, ok := strings.Cut(f, ":")
		if !ok || context == "" || text == "" || v.index[f] != i {
			continue
		}
		ts := v.texts[text[0]]
		k, seen := at[text]
		if !seen {
			k, at[text] = len(ts), len(ts)
			ts = append(ts, vocabText{text: text, webAPI: IsWebAPIKeyword(text)})
			v.lead[text[0]] |= leadBit(text)
		}
		ts[k].contexts = append(ts[k].contexts, vocabContext{context, i})
		v.texts[text[0]] = ts
	}
}

// lookup returns the vocabulary's entry for text, nil when no name has it.
func (v *Vocab) lookup(text string) *vocabText {
	if v.lead[text[0]]&leadBit(text) == 0 {
		return nil
	}
	ts := v.texts[text[0]]
	for i := range ts {
		if ts[i].text == text {
			return &ts[i]
		}
	}
	return nil
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
// between: the feature walk looks each text up in the vocabulary's text
// index as it goes, compares the contexts the text stands in against those
// the vocabulary has it under, and marks each hit in a bitset, which read
// out in index order is the sample — nothing to build, nothing to hash,
// nothing to sort. A script emits a few hundred texts and a vocabulary of
// the paper's size names a few dozen, so most texts are turned away by one
// bit test before anything else is asked about them, and the keyword set's
// Web API test is a flag of the entry a surviving text finds. This is the
// inference path: /v1/classify, its batch form and the Detector all
// classify through it.
func (v *Vocab) ProjectProgram(prog *jsast.Program, set Set) Sample {
	var stack [32]uint64 // vocabularies up to 2048 features need no heap
	hit := stack[:]
	if words := (len(v.names) + 63) / 64; words > len(stack) {
		hit = make([]uint64, words)
	}
	w := walker{set: set, vocab: v, hit: hit}
	w.node(prog, "Program", "")
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
