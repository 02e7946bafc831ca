package features

import (
	"slices"
	"testing"
)

func TestSetFromString(t *testing.T) {
	for _, s := range Sets {
		got, err := SetFromString(s.String())
		if err != nil || got != s {
			t.Errorf("SetFromString(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := SetFromString("bogus"); err == nil {
		t.Error("unknown set name must error")
	}
}

func TestVocabProjectMatchesDataset(t *testing.T) {
	sets := []map[string]bool{
		{"a:x": true, "b:y": true},
		{"b:y": true, "c:z": true},
		{"a:x": true, "c:z": true, "d:w": true},
	}
	ds, err := Build(sets, []int{+1, -1, +1})
	if err != nil {
		t.Fatal(err)
	}
	v := NewVocab(ds.Vocab)
	if v.Len() != ds.NumFeatures() || v.Distinct() != v.Len() {
		t.Fatalf("vocab of %d (%d distinct), want %d", v.Len(), v.Distinct(), ds.NumFeatures())
	}
	// A training script projects onto the sample Build made of it, and an
	// unseen feature adds nothing.
	for i, fs := range sets {
		probe := map[string]bool{"unseen:q": true}
		for f := range fs {
			probe[f] = true
		}
		if got := v.Project(probe); !slices.Equal(got, ds.Samples[i]) {
			t.Fatalf("script %d projected %v, Build made %v", i, got, ds.Samples[i])
		}
	}
	// A projection costs its result slice and nothing more.
	if allocs := testing.AllocsPerRun(100, func() { v.Project(sets[2]) }); allocs > 1 {
		t.Errorf("Vocab.Project allocates %v times per call, want ≤ 1", allocs)
	}
	// NewVocab copies its input: mutating the source must not leak in.
	names := append([]string(nil), ds.Vocab...)
	v = NewVocab(names)
	names[0] = "mutated"
	if v.names[0] == "mutated" {
		t.Error("NewVocab aliases caller slice")
	}
	// A repeated name is indexed once, and Distinct says so.
	if r := NewVocab([]string{"a:x", "b:y", "a:x"}); r.Len() != 3 || r.Distinct() != 2 {
		t.Errorf("repeated name: Len %d Distinct %d, want 3 and 2", r.Len(), r.Distinct())
	}
}
