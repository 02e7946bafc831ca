package ml

import (
	"math"
	"math/rand"
	"testing"

	"adwars/internal/features"
)

// synthDataset builds a separable-ish synthetic dataset: positives carry
// features from a "bait" pool, negatives from a "benign" pool, with a
// little overlap noise.
func synthDataset(t testing.TB, nPos, nNeg int, seed int64) *features.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	baitPool := []string{
		"Identifier:offsetHeight", "Identifier:offsetWidth",
		"Identifier:clientHeight", "Literal:abp", "Literal:adblock",
		"IfStatement:detected", "Identifier:createElement",
	}
	benignPool := []string{
		"Identifier:jquery", "Identifier:slider", "Literal:menu",
		"Identifier:analytics", "Literal:carousel", "Identifier:ajax",
		"CallExpression:init",
	}
	shared := []string{"Identifier:document", "Identifier:window", "Literal:div"}

	var sets []map[string]bool
	var labels []int
	draw := func(pool []string, k int, dst map[string]bool) {
		for i := 0; i < k; i++ {
			dst[pool[rng.Intn(len(pool))]] = true
		}
	}
	for i := 0; i < nPos; i++ {
		m := make(map[string]bool)
		draw(baitPool, 4, m)
		draw(shared, 2, m)
		if rng.Float64() < 0.1 {
			draw(benignPool, 1, m)
		}
		sets = append(sets, m)
		labels = append(labels, +1)
	}
	for i := 0; i < nNeg; i++ {
		m := make(map[string]bool)
		draw(benignPool, 4, m)
		draw(shared, 2, m)
		if rng.Float64() < 0.05 {
			draw(baitPool, 1, m)
		}
		sets = append(sets, m)
		labels = append(labels, -1)
	}
	ds, err := features.Build(sets, labels)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSVMSeparable(t *testing.T) {
	ds := synthDataset(t, 40, 120, 1)
	m, err := TrainSVM(ds, nil, DefaultSVMConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	c := Evaluate(m, ds)
	if c.TPRate() < 0.9 {
		t.Fatalf("training TP rate %.2f too low: %v", c.TPRate(), c)
	}
	if c.FPRate() > 0.1 {
		t.Fatalf("training FP rate %.2f too high: %v", c.FPRate(), c)
	}
	if m.NumSupportVectors() == 0 {
		t.Fatal("no support vectors retained")
	}
}

func TestSVMDeterministic(t *testing.T) {
	ds := synthDataset(t, 20, 60, 2)
	m1, err := TrainSVM(ds, nil, DefaultSVMConfig(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainSVM(ds, nil, DefaultSVMConfig(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ds.Samples {
		if m1.Predict(s) != m2.Predict(s) {
			t.Fatalf("sample %d: nondeterministic prediction", i)
		}
	}
}

func TestSVMRejectsDegenerateInputs(t *testing.T) {
	empty := &features.Dataset{}
	if _, err := TrainSVM(empty, nil, DefaultSVMConfig(), rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty dataset must error")
	}
	onlyPos, _ := features.Build(
		[]map[string]bool{{"a": true}, {"b": true}}, []int{1, 1})
	if _, err := TrainSVM(onlyPos, nil, DefaultSVMConfig(), rand.New(rand.NewSource(1))); err == nil {
		t.Error("single-class dataset must error")
	}
	ds := synthDataset(t, 5, 5, 3)
	if _, err := TrainSVM(ds, []float64{1}, DefaultSVMConfig(), rand.New(rand.NewSource(1))); err == nil {
		t.Error("weight length mismatch must error")
	}
}

func TestSVMWeightsShiftDecision(t *testing.T) {
	// Two conflicting points with identical features except one marker:
	// heavily weighting the positives should pull predictions positive on
	// the ambiguous region.
	sets := []map[string]bool{
		{"x": true, "p": true},
		{"x": true},
		{"x": true, "n": true},
		{"x": true, "n2": true},
	}
	labels := []int{1, 1, -1, -1}
	ds, _ := features.Build(sets, labels)
	cfg := DefaultSVMConfig()
	cfg.Kernel = RBF{Gamma: 0.3}

	heavyPos := []float64{0.45, 0.45, 0.05, 0.05}
	m, err := TrainSVM(ds, heavyPos, cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	amb := ds.Project(map[string]bool{"x": true})
	if m.Predict(amb) != 1 {
		t.Error("positively-weighted SVM should label ambiguous point +1")
	}
}

func TestRBFKernelProperties(t *testing.T) {
	k := RBF{Gamma: 0.1}
	a := features.Sample{1, 2, 3}
	b := features.Sample{2, 3, 4}
	if got := k.Eval(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("K(a,a) = %v, want 1", got)
	}
	ab, ba := k.Eval(a, b), k.Eval(b, a)
	if ab != ba {
		t.Fatal("kernel must be symmetric")
	}
	if ab <= 0 || ab >= 1 {
		t.Fatalf("K(a,b) = %v, want in (0,1)", ab)
	}
	// ||a-b||² = 3+3-2*2 = 2 → exp(-0.2)
	if math.Abs(ab-math.Exp(-0.2)) > 1e-12 {
		t.Fatalf("K(a,b) = %v", ab)
	}
}

func TestLinearKernel(t *testing.T) {
	k := Linear{}
	a := features.Sample{1, 2, 3}
	b := features.Sample{3, 4}
	if got := k.Eval(a, b); got != 1 {
		t.Fatalf("Linear(a,b) = %v, want 1", got)
	}
}

func TestGramCacheAgreesWithDirect(t *testing.T) {
	ds := synthDataset(t, 10, 30, 4)
	k := RBF{Gamma: 0.05}
	g := newGram(k, ds.Samples, 0, 1)
	for i := 0; i < ds.Len(); i += 7 {
		for j := 0; j < ds.Len(); j += 5 {
			want := k.Eval(ds.Samples[i], ds.Samples[j])
			if got := g.at(i, j); math.Abs(got-want) > 1e-12 {
				t.Fatalf("gram(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}
