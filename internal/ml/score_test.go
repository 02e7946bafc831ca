package ml

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"adwars/internal/features"
)

// naiveSVMDecision is the scoring oracle: one kernel call per support
// vector, in stored order — what SVM.Decision was before models were
// compiled. The compiled scorer must equal it bit for bit.
func naiveSVMDecision(m *SVM, s features.Sample) float64 {
	v := m.bias
	for i, sv := range m.vectors {
		v += m.coefs[i] * m.kernel.eval(sv, s)
	}
	return v
}

// naiveDecision is the ensemble oracle: the weighted vote over
// naiveSVMDecision, one kernel call per (round, vector).
func naiveDecision(a *AdaBoost, s features.Sample) float64 {
	v := 0.0
	for t, m := range a.models {
		v += a.alphas[t] * float64(sign(naiveSVMDecision(m, s)))
	}
	return v
}

// AssertMatchesOracle holds the compiled Decision of the ensemble and of
// each of its rounds to the naive oracle on s, bit for bit. Exported for
// the corpus differential in package ml_test.
func AssertMatchesOracle(t *testing.T, a *AdaBoost, s features.Sample) {
	t.Helper()
	if got, want := a.Decision(s), naiveDecision(a, s); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("ensemble decision %v (%#x), oracle %v (%#x) on %v",
			got, math.Float64bits(got), want, math.Float64bits(want), s)
	}
	for r, m := range a.models {
		if got, want := m.Decision(s), naiveSVMDecision(m, s); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("round %d decision %v (%#x), oracle %v (%#x) on %v",
				r, got, math.Float64bits(got), want, math.Float64bits(want), s)
		}
	}
}

// handEnsemble compiles hand-written rounds into an ensemble with alphas
// 1, 0.5, 0.25, …
func handEnsemble(rounds ...*SVM) *AdaBoost {
	a := &AdaBoost{models: rounds}
	for t := range rounds {
		a.alphas = append(a.alphas, 1/float64(int(1)<<t))
	}
	a.sc = compile(rounds...)
	return a
}

// solo wraps a standalone SVM as a one-round ensemble over the SVM's own
// scorer, so one assertion covers both model kinds.
func solo(m *SVM) *AdaBoost {
	return &AdaBoost{models: []*SVM{m}, alphas: []float64{1}, sc: m.sc}
}

func TestCompiledDecisionMatchesOracle(t *testing.T) {
	ds := synthDataset(t, 20, 120, 7)
	boosted, err := TrainAdaBoost(ds, DefaultAdaBoostConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	trained := func(k RBF) *SVM {
		cfg := DefaultSVMConfig()
		cfg.Kernel = k
		m, err := TrainSVM(ds, nil, cfg, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	v := func(f ...int32) features.Sample { return features.Sample(f) }
	models := map[string]*AdaBoost{
		"boosted":           boosted,
		"single round":      {models: boosted.models[:1], alphas: boosted.alphas[:1], sc: boosted.sc},
		"svm rbf":           solo(trained(DefaultSVMConfig().Kernel)),
		"svm boosted width": solo(trained(DefaultAdaBoostConfig().SVM.Kernel)),
		"no vectors":        handEnsemble(&SVM{kernel: RBF{Gamma: 0.05}, bias: -1}),
		"empty vector":      handEnsemble(&SVM{kernel: RBF{Gamma: 0.3}, vectors: []features.Sample{nil, v(2)}, coefs: []float64{0.7, -0.2}}),
		"zero ensemble":     {},
		// The same vector twice in one round under opposite signs: the
		// products must cancel in the stored order, not be merged.
		"duplicates cancel": handEnsemble(&SVM{
			kernel:  RBF{Gamma: 0.1},
			vectors: []features.Sample{v(1, 4, 9), v(0, 2), v(1, 4, 9), v(1, 4, 9)},
			coefs:   []float64{0.3, 1e-9, -0.3, 0.1},
			bias:    -0.05,
		}),
		// Rounds naming one vector in different orders: each round sums
		// the shared values in its own stored order.
		"shared rounds": handEnsemble(
			&SVM{kernel: RBF{Gamma: 0.02}, vectors: []features.Sample{v(0, 3, 5), v(3, 8)}, coefs: []float64{1.5, -0.5}, bias: 0.1},
			&SVM{kernel: RBF{Gamma: 0.02}, vectors: []features.Sample{v(3, 8), v(0, 3, 5)}, coefs: []float64{-2, 0.25}, bias: -0.1},
			&SVM{kernel: RBF{Gamma: 0.02}, vectors: []features.Sample{v(0, 3, 5), v(1)}, coefs: []float64{0.5, -0.5}, bias: -0.7},
			&SVM{kernel: RBF{Gamma: 0.02}, vectors: []features.Sample{v(3, 8), v(12)}, coefs: []float64{0.9, 0.9}, bias: -1},
		),
	}

	nf := int32(ds.NumFeatures())
	long := make(features.Sample, 5000) // longer than any exp table here
	for i := range long {
		long[i] = int32(i)
	}
	samples := []features.Sample{
		nil,
		{},
		v(nf, nf+1, nf+40),         // every feature unseen
		v(0, 3, nf+1, 1<<30),       // seen and unseen mixed
		v(-5, 0, 3),                // a negative index intersects nothing
		long,                       // holds every feature of every model
		long[nf : nf+3000],         // long and disjoint from every vector
		v(1, 4, 9), v(0, 2), v(12), // the hand-written vectors themselves
	}
	samples = append(samples, ds.Samples...)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		var s features.Sample
		for f := int32(0); f < nf+4; f++ {
			if rng.Intn(3) == 0 {
				s = append(s, f)
			}
		}
		samples = append(samples, s)
	}

	for name, a := range models {
		t.Run(name, func(t *testing.T) {
			for _, s := range samples {
				AssertMatchesOracle(t, a, s)
			}
		})
	}
	if n := len(boosted.sc.table); len(long) <= n {
		t.Errorf("the long sample (%d features) fits the %d-entry exp table; the direct path went untested", len(long), n)
	}
}

// TestCompileSharesVectors pins what compile deduplicates: equal vectors,
// across and within rounds, and nothing else.
func TestCompileSharesVectors(t *testing.T) {
	v := func(f ...int32) features.Sample { return features.Sample(f) }
	a := handEnsemble(
		&SVM{kernel: RBF{Gamma: 0.02}, vectors: []features.Sample{v(0, 3), v(3, 8), v(0, 3)}, coefs: []float64{1, 1, 1}},
		&SVM{kernel: RBF{Gamma: 0.02}, vectors: []features.Sample{v(3, 8), v(0, 3, 8)}, coefs: []float64{1, 1}},
		&SVM{kernel: RBF{Gamma: 0.02}, vectors: []features.Sample{v(0, 3), v(3)}, coefs: []float64{1, 1}},
	)
	if got, want := a.NumSupportVectors(), 7; got != want {
		t.Errorf("NumSupportVectors = %d, want %d", got, want)
	}
	if got, want := a.NumDistinctVectors(), 4; got != want {
		t.Errorf("NumDistinctVectors = %d, want %d", got, want)
	}
	wantIDs := [][]int32{{0, 1, 0}, {1, 2}, {0, 3}}
	for r, m := range a.models {
		if !reflect.DeepEqual(m.ids, wantIDs[r]) {
			t.Errorf("round %d ids = %v, want %v", r, m.ids, wantIDs[r])
		}
	}
	if got, want := a.sc.numFeatures(), 9; got != want {
		t.Errorf("numFeatures = %d, want %d", got, want)
	}
	// Feature 3 is held by all four distinct vectors, feature 1 by none.
	if got := a.sc.post[a.sc.postOff[3]:a.sc.postOff[4]]; !reflect.DeepEqual(got, []int32{0, 1, 2, 3}) {
		t.Errorf("postings of feature 3 = %v", got)
	}
	if a.sc.postOff[1] != a.sc.postOff[2] {
		t.Errorf("feature 1 has postings")
	}
}

// TestCompiledFormSurvivesRoundTrip: the scorer a loaded model compiles is
// the one training compiled — distinct vectors, ids, postings and tables.
func TestCompiledFormSurvivesRoundTrip(t *testing.T) {
	ds := synthDataset(t, 20, 120, 7)
	a, err := TrainAdaBoost(ds, DefaultAdaBoostConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	back := adaBoostRoundTrip(t, a, ds.Vocab)
	if !reflect.DeepEqual(a.sc, back.sc) {
		t.Errorf("compiled form changed across marshal/unmarshal:\ntrained %+v\nloaded  %+v", a.sc, back.sc)
	}
	for r := range a.models {
		if !reflect.DeepEqual(a.models[r].ids, back.models[r].ids) {
			t.Errorf("round %d ids changed across marshal/unmarshal", r)
		}
		if back.models[r].sc != back.sc {
			t.Errorf("round %d does not share the ensemble's scorer", r)
		}
	}
	if a.NumDistinctVectors() == 0 || a.NumDistinctVectors() > a.NumSupportVectors() {
		t.Errorf("%d distinct of %d support vectors", a.NumDistinctVectors(), a.NumSupportVectors())
	}
}

// TestDecisionConcurrent scores one model from 8 goroutines; the scorer is
// immutable, so `go test -race -count=10` must stay silent and every
// goroutine must read the sequential values.
func TestDecisionConcurrent(t *testing.T) {
	ds := synthDataset(t, 20, 120, 7)
	a, err := TrainAdaBoost(ds, DefaultAdaBoostConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(ds.Samples))
	for i, s := range ds.Samples {
		want[i] = a.Decision(s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 3; n++ {
				for i := range ds.Samples {
					i = (i + g*17) % len(ds.Samples)
					if got := a.Decision(ds.Samples[i]); got != want[i] {
						t.Errorf("goroutine %d sample %d: decision %v, sequential %v", g, i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
