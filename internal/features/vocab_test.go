package features

import (
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
	fromNames := NewVocab(ds.Vocab)
	fromDataset := ds.Vocabulary()
	if fromNames.Len() != ds.NumFeatures() || fromDataset.Len() != ds.NumFeatures() {
		t.Fatalf("vocab sizes %d/%d, want %d", fromNames.Len(), fromDataset.Len(), ds.NumFeatures())
	}
	probe := map[string]bool{"a:x": true, "c:z": true, "unseen:q": true}
	want := ds.Project(probe)
	for _, v := range []*Vocab{fromNames, fromDataset} {
		got := v.Project(probe)
		if len(got) != len(want) {
			t.Fatalf("projected %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("projected %v, want %v", got, want)
			}
		}
	}
	// A projection costs its result slice and nothing more, by either door.
	for name, project := range map[string]func(map[string]bool) Sample{"Vocab": fromNames.Project, "Dataset": ds.Project} {
		if allocs := testing.AllocsPerRun(100, func() { project(probe) }); allocs > 1 {
			t.Errorf("%s.Project allocates %v times per call, want ≤ 1", name, allocs)
		}
	}
	// NewVocab copies its input: mutating the source must not leak in.
	names := append([]string(nil), ds.Vocab...)
	v := NewVocab(names)
	names[0] = "mutated"
	if v.names[0] == "mutated" {
		t.Error("NewVocab aliases caller slice")
	}
}
