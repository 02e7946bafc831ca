package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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
	amb := features.NewVocab(ds.Vocab).Project(map[string]bool{"x": true})
	if m.Predict(amb) != 1 {
		t.Error("positively-weighted SVM should label ambiguous point +1")
	}
}

func TestRBFKernelProperties(t *testing.T) {
	k := RBF{Gamma: 0.1}
	a := features.Sample{1, 2, 3}
	b := features.Sample{2, 3, 4}
	if got := k.eval(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("K(a,a) = %v, want 1", got)
	}
	ab, ba := k.eval(a, b), k.eval(b, a)
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

func TestGramCacheAgreesWithDirect(t *testing.T) {
	ds := synthDataset(t, 10, 30, 4)
	k := RBF{Gamma: 0.05}
	g := newGram(k, ds.Samples)
	for i := 0; i < ds.Len(); i += 7 {
		for j := 0; j < ds.Len(); j += 5 {
			want := k.eval(ds.Samples[i], ds.Samples[j])
			if got := g.at(i, j); math.Abs(got-want) > 1e-12 {
				t.Fatalf("gram(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// referenceSolveSMO is the solver as commit fe48e85 had it — one ordered
// chain per decision, ej computed as soon as j is drawn — kept as the
// oracle solveSMO's blocked sweep and deferred ej are held to, bit for bit.
func referenceSolveSMO(ds *features.Dataset, weights []float64, cfg SVMConfig, rng *rand.Rand, g *gram) *SVM {
	n := ds.Len()

	y := make([]float64, n)
	for i, l := range ds.Labels {
		if l > 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	// Per-sample C.
	cs := make([]float64, n)
	for i := range cs {
		cs[i] = cfg.C
		if weights != nil {
			cs[i] = cfg.C * weights[i] * float64(n)
			if cs[i] < 1e-8 {
				cs[i] = 1e-8
			}
		}
	}

	alpha := make([]float64, n)
	coef := make([]float64, n) // αᵢyᵢ, maintained alongside alpha
	var active []int32         // sorted indices with α ≠ 0
	b := 0.0

	setAlpha := func(i int, v float64) {
		was, now := alpha[i] != 0, v != 0
		alpha[i] = v
		coef[i] = v * y[i]
		if now == was {
			return
		}
		k := sort.Search(len(active), func(k int) bool { return active[k] >= int32(i) })
		if now {
			active = append(active, 0)
			copy(active[k+1:], active[k:])
			active[k] = int32(i)
		} else {
			active = append(active[:k], active[k+1:]...)
		}
	}

	decision := func(i int) float64 {
		v := b
		for _, j := range active {
			v += coef[j] * g.at(int(j), i)
		}
		return v
	}

	passes, iter := 0, 0
	for passes < smoMaxPasses && iter < cfg.MaxIter {
		iter++
		changed := 0
		for i := 0; i < n; i++ {
			ei := decision(i) - y[i]
			if !((y[i]*ei < -smoTol && alpha[i] < cs[i]) || (y[i]*ei > smoTol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := decision(j) - y[j]

			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(cs[j], cs[i]+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-cs[i])
				hi = math.Min(cs[j], ai+aj)
			}
			if lo >= hi {
				continue
			}
			eta := 2*g.at(i, j) - g.at(i, i) - g.at(j, j)
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-7 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)

			b1 := b - ei - y[i]*(aiNew-ai)*g.at(i, i) - y[j]*(ajNew-aj)*g.at(i, j)
			b2 := b - ej - y[i]*(aiNew-ai)*g.at(i, j) - y[j]*(ajNew-aj)*g.at(j, j)
			switch {
			case aiNew > 0 && aiNew < cs[i]:
				b = b1
			case ajNew > 0 && ajNew < cs[j]:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			setAlpha(i, aiNew)
			setAlpha(j, ajNew)
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	m := &SVM{kernel: cfg.Kernel, bias: b}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			m.vectors = append(m.vectors, ds.Samples[i])
			m.coefs = append(m.coefs, alpha[i]*y[i])
			m.svIdx = append(m.svIdx, int32(i))
		}
	}
	if len(m.vectors) == 0 {
		// Degenerate optimization outcome: fall back to the class prior.
		pos := 0
		for _, l := range ds.Labels {
			if l > 0 {
				pos++
			}
		}
		if 2*pos >= n {
			m.bias = 1
		} else {
			m.bias = -1
		}
	}
	return m
}

// referenceDecisionGram is the one-chain error-pass sum of commit fe48e85.
func referenceDecisionGram(m *SVM, g *gram, sample int) float64 {
	v := m.bias
	for k, i := range m.svIdx {
		v += m.coefs[k] * g.at(int(i), sample)
	}
	return v
}

// labeled builds a dataset of n samples over a small feature pool, so
// duplicates (η = 0 pairs) are common, with labels that follow one feature
// except for a noisy fraction — not separable, so SMO keeps stepping.
func labeled(t testing.TB, n int, noise float64, seed int64) *features.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i"}
	sets := make([]map[string]bool, n)
	labels := make([]int, n)
	for i := range sets {
		sets[i] = map[string]bool{}
		for k := 0; k < 4; k++ {
			sets[i][pool[rng.Intn(len(pool))]] = true
		}
		labels[i] = -1
		if sets[i]["a"] != (rng.Float64() < noise) {
			labels[i] = 1
		}
	}
	labels[0], labels[n-1] = 1, -1 // both classes whatever the draw
	ds, err := features.Build(sets, labels)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// duplicated builds a dataset in which every sample has exact copies, some
// under the opposite label: SMO draws pairs with η = 0 and must skip them.
func duplicated(t testing.TB) *features.Dataset {
	t.Helper()
	distinct := []map[string]bool{
		{"x": true, "p": true}, {"x": true, "q": true}, {"x": true},
		{"y": true, "p": true}, {"y": true, "q": true}, {"y": true},
	}
	var sets []map[string]bool
	var labels []int
	for r := 0; r < 5; r++ {
		for k, s := range distinct {
			sets = append(sets, s)
			l := -1
			if k < 3 != (k == r) {
				l = 1
			}
			labels = append(labels, l)
		}
	}
	ds, err := features.Build(sets, labels)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// boostedWeights is a weight vector as a late AdaBoost round leaves it:
// normalized, spread over orders of magnitude, one weight under the
// per-sample C floor.
func boostedWeights(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Exp(3 * rng.NormFloat64())
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	w[n/2] = 1e-12
	return w
}

func sameSolve(t *testing.T, name string, got, want *SVM) {
	t.Helper()
	if math.Float64bits(got.bias) != math.Float64bits(want.bias) {
		t.Errorf("%s: bias %v (%#x), reference %v (%#x)", name,
			got.bias, math.Float64bits(got.bias), want.bias, math.Float64bits(want.bias))
	}
	if len(got.coefs) != len(want.coefs) {
		t.Fatalf("%s: %d support vectors, reference %d", name, len(got.coefs), len(want.coefs))
	}
	for k := range want.coefs {
		if math.Float64bits(got.coefs[k]) != math.Float64bits(want.coefs[k]) || got.svIdx[k] != want.svIdx[k] {
			t.Fatalf("%s: support vector %d is (%d, %v), reference (%d, %v)", name, k,
				got.svIdx[k], got.coefs[k], want.svIdx[k], want.coefs[k])
		}
	}
}

// TestSolveSMOMatchesReference is the solver's bit-identity gate: the
// blocked sweep and the deferred ej must reproduce the one-chain, eager-ej
// reference in every bit of bias, coefficients and support set — at block
// tails of every length, under sample weights, on duplicate samples, when
// the solve is cut at MaxIter, under both widths the product trains (plain
// SVM and boosted rounds), over the matrix newGram fills and over the
// direct oracle. The error pass's blocked sums are held
// to the one-chain sum the same way.
func TestSolveSMOMatchesReference(t *testing.T) {
	type kase struct {
		name    string
		ds      *features.Dataset
		boosted bool
		maxIter int
		capped  bool
	}
	var cases []kase
	for _, n := range []int{2, 3, 40, 41, 42, 43} {
		cases = append(cases, kase{name: fmt.Sprintf("n=%d", n), ds: labeled(t, n, 0.1, int64(n))})
		cases = append(cases, kase{name: fmt.Sprintf("n=%d/boosted", n), ds: labeled(t, n, 0.1, int64(n)), boosted: true})
	}
	cases = append(cases,
		kase{name: "separable", ds: synthDataset(t, 12, 37, 6)},
		kase{name: "duplicates", ds: duplicated(t)},
		kase{name: "noisy/capped", ds: labeled(t, 61, 0.4, 9), boosted: true, maxIter: 4, capped: true},
	)
	kernels := map[string]RBF{"γ=0.05": DefaultSVMConfig().Kernel, "γ=0.02": DefaultAdaBoostConfig().SVM.Kernel}
	for _, c := range cases {
		n := c.ds.Len()
		for kname, kernel := range kernels {
			for pname, g := range map[string]*gram{"full": newGram(kernel, c.ds.Samples), "direct": directGram(kernel, c.ds.Samples)} {
				name := c.name + "/" + kname + "/" + pname
				cfg := DefaultSVMConfig()
				cfg.Kernel = kernel
				if c.maxIter > 0 {
					cfg.MaxIter = c.maxIter
				}
				var w []float64
				if c.boosted {
					w = boostedWeights(n, 3)
				}
				want := referenceSolveSMO(c.ds, w, cfg, rand.New(rand.NewSource(11)), g)
				got := solveSMO(c.ds, w, cfg, rand.New(rand.NewSource(11)), g)
				sameSolve(t, name, got, want)
				if got.capped != c.capped {
					t.Errorf("%s: capped = %v after %d sweeps, want %v", name, got.capped, got.sweeps, c.capped)
				}
				dec := make([]float64, n)
				got.decisionsGram(g, dec)
				for i, v := range dec {
					if ref := referenceDecisionGram(want, g, i); math.Float64bits(v) != math.Float64bits(ref) {
						t.Fatalf("%s: error-pass decision(%d) = %v, reference %v", name, i, v, ref)
					}
				}
			}
		}
	}
}

// TestSolveSMOConcurrentCV runs the blocked solver the way Table 3 does —
// folds training concurrently, each boosting over its own view of the
// Gram matrix — so `go test -race` sees it, and holds the result to the
// run on one core.
func TestSolveSMOConcurrentCV(t *testing.T) {
	ds := synthDataset(t, 20, 61, 13)
	cfg := DefaultAdaBoostConfig()
	setProcs(t, 1)
	want, err := CrossValidateAdaBoost(ds, cfg, CVConfig{Folds: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 4)
	got, err := CrossValidateAdaBoost(ds, cfg, CVConfig{Folds: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("GOMAXPROCS 4: %+v, GOMAXPROCS 1 %+v", got, want)
	}
}
