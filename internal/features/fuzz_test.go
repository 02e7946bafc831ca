package features_test

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"adwars/internal/features"
	"adwars/internal/jsast"
)

// FuzzProjectProgram holds the served projection to its definition on
// sources nobody wrote down: for every input that parses and each feature
// set, ProjectProgram == Project(Extract) over a vocabulary of every other
// feature the script has under that set plus the traps
// TestProjectProgramMatchesProject sets — names that are prefixes and
// extensions of real ones, names cut where the walk cuts, names no walk
// produces. The text index turns most texts away on one bit of their first
// byte and length; this is where a text it wrongly turns away shows.
func FuzzProjectProgram(f *testing.F) {
	long := strings.Repeat("x", 64)
	for _, src := range []string{
		`var ` + long + `yz = "` + long + `tail"; document.getElementById("doc");`,
		`function f() { try { doc(document, "document"); } catch (e) { return typeof e in this; } }`,
		`x("` + strings.Repeat("a", 63) + `é"); y("\xe9t\xe9"); var é = 'a:b';`,
		`if (window.document.body.getAttribute('abp') !== null) { detected = true; }`,
		`for (var k in o) { while (k) { new Image().src = k; switch (k) { case 1: break; } } }`,
	} {
		f.Add(src)
	}
	traps := []string{
		"Identifier:doc", "Identifier:document", "Identifier:documentElement",
		"Literal:" + long, "Literal:" + long + "tail", "Literal:", ":", "",
		"VariableDeclarator:" + long, "VariableDeclarator:" + long + "yz",
		"Literal:" + long[1:], "Literal:a:b", ":document", "document",
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, _, err := jsast.ParseAndUnpack(src)
		if err != nil {
			return
		}
		for _, set := range features.Sets {
			fs := features.Extract(prog, set)
			all := make([]string, 0, len(fs))
			for name := range fs {
				all = append(all, name)
			}
			sort.Strings(all)
			names := slices.Clone(traps)
			for i := 0; i < len(all); i += 2 {
				names = append(names, all[i])
			}
			vocab := features.NewVocab(names)
			want := vocab.Project(fs)
			if got := vocab.ProjectProgram(prog, set); !slices.Equal(got, want) {
				t.Fatalf("%s: ProjectProgram = %v, Project(Extract) = %v over %q", set, got, want, names)
			}
		}
	})
}
