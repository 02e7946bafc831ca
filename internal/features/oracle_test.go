package features_test

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"adwars/internal/artifact"
	"adwars/internal/features"
	"adwars/internal/jsast"
	"adwars/internal/scriptcorpus"
)

// TestExtractPinned holds ExtractSource to the parent commit, not merely to
// itself: every feature of every oracle script under all three sets, sorted,
// folded into one checksum that commit d38b6c6 computed while the lexer
// still scanned its punctuator table linearly and the walk still went
// through jsast.Children. A script that does not parse contributes its
// position and nothing else, so a parser that starts accepting or refusing
// an input moves the sum too.
func TestExtractPinned(t *testing.T) {
	scripts := scriptcorpus.Scripts(t)
	var buf []byte
	parsed, feats := 0, 0
	for i, src := range scripts {
		for _, set := range features.Sets {
			fs, err := features.ExtractSource(src, set)
			buf = append(buf, byte(i), byte(i>>8), byte(set))
			if err != nil {
				buf = append(buf, 0xff)
				continue
			}
			parsed++
			names := make([]string, 0, len(fs))
			for f := range fs {
				names = append(names, f)
			}
			sort.Strings(names)
			feats += len(names)
			for _, f := range names {
				buf = append(buf, f...)
				buf = append(buf, 0)
			}
		}
	}
	if parsed < 3*500 {
		t.Fatalf("only %d (script, set) pairs parsed; digest too weak", parsed)
	}
	const want = uint64(0xdc2f434242f6d323)
	if got := artifact.Checksum(buf); got != want {
		t.Errorf("%d features over %d scripts × 3 sets (%d parsed) checksum to %#016x, commit d38b6c6 computed %#016x",
			feats, len(scripts), parsed, got, want)
	}
}

// TestProjectProgramMatchesProject holds the map-free projection to the two
// steps it fuses, element for element, under all three feature sets, on the
// oracle scripts and on the cases a key buffer gets wrong: texts cut at
// maxTextLen (the cut text is in the vocabulary, the whole one is too and
// must never hit), a feature that is a prefix of another, a vocabulary too
// big for the stack bitset and one with nothing in it.
func TestProjectProgramMatchesProject(t *testing.T) {
	long := strings.Repeat("x", 64)
	scripts := append([]string{
		`var ` + long + `yz = "` + long + `tail"; document.getElementById("doc");`,
		`function f() { try { doc(document, "document"); } catch (e) { return typeof e in this; } }`,
	}, scriptcorpus.Scripts(t)...)

	var progs []*jsast.Program
	var srcs []string
	for _, src := range scripts {
		if prog, _, err := jsast.ParseAndUnpack(src); err == nil {
			progs = append(progs, prog)
			srcs = append(srcs, src)
		}
	}
	for _, set := range features.Sets {
		// Every third feature the corpus has under this set, so that hits
		// and misses both happen in every script, plus the traps.
		seen := map[string]bool{}
		for _, prog := range progs {
			for f := range features.Extract(prog, set) {
				seen[f] = true
			}
		}
		all := make([]string, 0, len(seen))
		for f := range seen {
			all = append(all, f)
		}
		sort.Strings(all)
		// The names no script has come first and fill the stack bitset's
		// 2048 bits, so every real hit lands in the heap one.
		var names []string
		for i := 0; i < 2048; i++ {
			names = append(names, "Nowhere:"+strconv.Itoa(i))
		}
		names = append(names,
			"Identifier:doc", "Identifier:document", "Identifier:documentElement",
			"Literal:"+long, "Literal:"+long+"tail", "Literal:", ":", "",
			"VariableDeclarator:"+long, "VariableDeclarator:"+long+"yz")
		for i := 0; i < len(all); i += 3 {
			names = append(names, all[i])
		}
		for _, vocab := range []*features.Vocab{
			features.NewVocab(names), features.NewVocab(names[2000:2200]), features.NewVocab(nil),
		} {
			hits := 0
			for i, prog := range progs {
				want := vocab.Project(features.Extract(prog, set))
				got := vocab.ProjectProgram(prog, set)
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("%s, vocabulary of %d, script %d: ProjectProgram = %v, Project(Extract) = %v\n%s",
						set, vocab.Len(), i, got, want, srcs[i])
				}
				hits += len(got)
			}
			if vocab.Len() > 0 && hits == 0 {
				t.Errorf("%s, vocabulary of %d: no script hit it; comparison is vacuous", set, vocab.Len())
			}
		}
	}
}
