package features

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func fset(fs ...string) map[string]bool {
	m := make(map[string]bool, len(fs))
	for _, f := range fs {
		m[f] = true
	}
	return m
}

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	// 4 positives carrying "bait"-style features, 4 negatives without.
	sets := []map[string]bool{
		fset("Identifier:offsetHeight", "Literal:abp", "Identifier:jquery"),
		fset("Identifier:offsetHeight", "Literal:abp"),
		fset("Identifier:offsetHeight", "Identifier:clientWidth"),
		fset("Identifier:offsetHeight", "Literal:abp", "Identifier:clientWidth"),
		fset("Identifier:jquery", "Literal:menu"),
		fset("Identifier:jquery", "Literal:slider"),
		fset("Identifier:jquery"),
		fset("Literal:menu", "Identifier:analytics"),
	}
	labels := []int{1, 1, 1, 1, -1, -1, -1, -1}
	ds, err := Build(sets, labels)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildDeterministicVocab(t *testing.T) {
	ds := testDataset(t)
	if !sort.StringsAreSorted(ds.Vocab) {
		t.Fatal("vocabulary must be sorted")
	}
	ds2 := testDataset(t)
	if len(ds.Vocab) != len(ds2.Vocab) {
		t.Fatal("vocabulary not deterministic")
	}
	for i := range ds.Vocab {
		if ds.Vocab[i] != ds2.Vocab[i] {
			t.Fatal("vocabulary order not deterministic")
		}
	}
}

func TestBuildLengthMismatch(t *testing.T) {
	if _, err := Build([]map[string]bool{fset("a")}, []int{1, -1}); err == nil {
		t.Fatal("want error on length mismatch")
	}
}

func TestSampleOps(t *testing.T) {
	s := Sample{1, 3, 5, 9}
	tt := Sample{3, 4, 5, 6}
	if got := s.IntersectionSize(tt); got != 2 {
		t.Fatalf("intersection = %d, want 2", got)
	}
}

func TestChiSquarePerfectDiscriminator(t *testing.T) {
	ds := testDataset(t)
	scores := ds.ChiSquare()
	byName := map[string]float64{}
	for i, f := range ds.Vocab {
		byName[f] = scores[i]
	}
	// offsetHeight is present in every positive and no negative: chi2 = N.
	if got := byName["Identifier:offsetHeight"]; math.Abs(got-8) > 1e-9 {
		t.Fatalf("chi2(offsetHeight) = %v, want 8 (=N)", got)
	}
	// jquery appears in 1 pos and 3 neg — weakly informative.
	if byName["Identifier:jquery"] >= byName["Identifier:offsetHeight"] {
		t.Fatal("weak feature scored above perfect discriminator")
	}
}

func TestChiSquareHandPaperFormula(t *testing.T) {
	ds := testDataset(t)
	scores := ds.ChiSquare()
	// Verify "Literal:abp" by hand: A=3 pos with, B=0 neg with, C=1, D=4.
	var abp float64
	for i, f := range ds.Vocab {
		if f == "Literal:abp" {
			abp = scores[i]
		}
	}
	// chi2 = 8*(3*4-1*0)^2 / (4*4*3*5) = 8*144/240 = 4.8
	if math.Abs(abp-4.8) > 1e-9 {
		t.Fatalf("chi2(abp) = %v, want 4.8", abp)
	}
}

func TestFilterVariance(t *testing.T) {
	// A feature present in every sample has variance 0 and must go.
	sets := []map[string]bool{
		fset("always", "sometimes"),
		fset("always"),
		fset("always", "sometimes"),
		fset("always"),
	}
	ds, _ := Build(sets, []int{1, 1, -1, -1})
	out := ds.FilterVariance(0.01)
	if out.NumFeatures() != 1 || out.Vocab[0] != "sometimes" {
		t.Fatalf("vocab after variance filter = %v", out.Vocab)
	}
}

func TestDeduplicateColumns(t *testing.T) {
	// "a" and "b" have identical support; one must be removed.
	sets := []map[string]bool{
		fset("a", "b", "c"),
		fset("a", "b"),
		fset("c"),
	}
	ds, _ := Build(sets, []int{1, 1, -1})
	out := ds.DeduplicateColumns()
	if out.NumFeatures() != 2 {
		t.Fatalf("features after dedup = %v", out.Vocab)
	}
	if out.Vocab[0] != "a" || out.Vocab[1] != "c" {
		t.Fatalf("dedup should keep lexicographically first: %v", out.Vocab)
	}
}

func TestSelectTopChiSquare(t *testing.T) {
	ds := testDataset(t)
	out := ds.SelectTopChiSquare(2)
	if out.NumFeatures() != 2 {
		t.Fatalf("k=2 kept %d features", out.NumFeatures())
	}
	names := map[string]bool{}
	for _, f := range out.Vocab {
		names[f] = true
	}
	if !names["Identifier:offsetHeight"] {
		t.Fatal("top-2 must include the perfect discriminator")
	}
	// k larger than vocab: unchanged.
	if ds.SelectTopChiSquare(1000).NumFeatures() != ds.NumFeatures() {
		t.Fatal("oversized k should be a no-op")
	}
}

func TestRemapPreservesMembership(t *testing.T) {
	ds := testDataset(t)
	out := ds.SelectPipeline(3)
	// Every remapped sample index must point at a feature the original
	// sample contained.
	for i, s := range out.Samples {
		for _, f := range s {
			name := out.Vocab[f]
			orig := ds.Samples[i]
			found := false
			for _, of := range orig {
				if ds.Vocab[of] == name {
					found = true
				}
			}
			if !found {
				t.Fatalf("sample %d gained feature %q", i, name)
			}
		}
	}
}

func TestProjectIgnoresUnseen(t *testing.T) {
	ds := testDataset(t)
	s := NewVocab(ds.Vocab).Project(fset("Identifier:offsetHeight", "Identifier:never-seen"))
	if len(s) != 1 {
		t.Fatalf("projected = %v, want single known feature", s)
	}
	if ds.Vocab[s[0]] != "Identifier:offsetHeight" {
		t.Fatalf("projected wrong feature %q", ds.Vocab[s[0]])
	}
}

func TestSubset(t *testing.T) {
	ds := testDataset(t)
	sub := ds.Subset([]int{0, 4})
	if sub.Len() != 2 || sub.Labels[0] != 1 || sub.Labels[1] != -1 {
		t.Fatal("subset wrong")
	}
	if sub.NumFeatures() != ds.NumFeatures() {
		t.Fatal("subset must share vocabulary")
	}
}

func TestIntersectionSizeProperty(t *testing.T) {
	// |s∩t| is symmetric and bounded by min(|s|,|t|).
	f := func(a, b []uint8) bool {
		mk := func(xs []uint8) Sample {
			seen := map[int32]bool{}
			var s Sample
			for _, x := range xs {
				if !seen[int32(x)] {
					seen[int32(x)] = true
					s = append(s, int32(x))
				}
			}
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			return s
		}
		s, tt := mk(a), mk(b)
		ab, ba := s.IntersectionSize(tt), tt.IntersectionSize(s)
		if ab != ba {
			return false
		}
		min := len(s)
		if len(tt) < min {
			min = len(tt)
		}
		return ab <= min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
