package experiments

import (
	"context"
	"strings"
	"testing"

	"adwars/internal/antiadblock"
	"adwars/internal/features"
)

func TestTable2(t *testing.T) {
	script := antiadblock.ReferenceBlockAdBlock
	rows, err := Table2(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 20 {
		t.Fatalf("only %d features extracted", len(rows))
	}
	// The geometry probes of Table 2 must appear, tagged all+keyword.
	found := false
	for _, r := range rows {
		if r.Feature == "Identifier:offsetHeight" {
			found = true
			joined := strings.Join(r.Sets, ",")
			if !strings.Contains(joined, "all") || !strings.Contains(joined, "keyword") {
				t.Errorf("offsetHeight sets = %v, want all+keyword", r.Sets)
			}
		}
	}
	if !found {
		t.Fatal("Identifier:offsetHeight missing")
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "offsetHeight") {
		t.Error("render missing highlight feature")
	}
}

func TestTable2ParseError(t *testing.T) {
	if _, err := Table2("((("); err == nil {
		t.Fatal("want parse error")
	}
}

func TestTable3AndLiveModel(t *testing.T) {
	if testing.Short() {
		t.Skip("classifier sweep is slow")
	}
	l, r := lab(t)
	corpus := &Corpus{Positives: r.CorpusPos, Negatives: r.CorpusNeg}
	if corpus.Imbalance() < 1 {
		t.Fatalf("imbalance = %.1f", corpus.Imbalance())
	}

	cfg := Table3Config{TopK: []int{100, 1000}, Folds: 5, Seed: 3, MaxSamples: 440}
	rows, err := Table3(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 feature counts × 3 sets × 2 classifiers.
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	for _, row := range rows {
		if row.TPRate < 0.85 {
			t.Errorf("%s/%s/%d: TP rate %.2f too low",
				row.Classifier, row.FeatureSet, row.NumFeatures, row.TPRate)
		}
		if row.FPRate > 0.15 {
			t.Errorf("%s/%s/%d: FP rate %.2f too high",
				row.Classifier, row.FeatureSet, row.NumFeatures, row.FPRate)
		}
	}
	best := BestRow(rows)
	if best.TPRate < 0.9 {
		t.Errorf("best TP rate %.2f, want ≥ 0.9 (paper: 99.7%%)", best.TPRate)
	}
	_ = RenderTable3(rows)

	// §5 live test: classify scripts from live sites outside the
	// training cut (the paper reports 92.5%).
	live, err := l.RunLive(context.Background(), LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := LiveModelTest(corpus, live.Scripts, 5000, 3, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scripts < 20 {
		t.Fatalf("live test scripts = %d", res.Scripts)
	}
	if res.TPRate < 0.75 {
		t.Errorf("live TP rate = %.2f, want high (paper 92.5%%)", res.TPRate)
	}
	_ = res.Render()
}

func TestCorpusTrim(t *testing.T) {
	c := &Corpus{}
	for i := 0; i < 50; i++ {
		c.Positives = append(c.Positives, strings.Repeat("p", i+1))
	}
	for i := 0; i < 900; i++ {
		c.Negatives = append(c.Negatives, strings.Repeat("n", i+1))
	}
	trimmed := c.trim(330, 1)
	if got := trimmed.Imbalance(); got < 9.5 || got > 10.5 {
		t.Fatalf("imbalance after trim = %.1f, want 10", got)
	}
	if len(trimmed.Positives)+len(trimmed.Negatives) > 340 {
		t.Fatalf("trim exceeded cap: %d samples",
			len(trimmed.Positives)+len(trimmed.Negatives))
	}
	// Deterministic.
	t2 := c.trim(330, 1)
	if t2.Positives[0] != trimmed.Positives[0] {
		t.Fatal("trim not deterministic")
	}
}

func TestBuildDatasetSkipsUnparseable(t *testing.T) {
	c := &Corpus{
		Positives: []string{"var bait = document.body.offsetHeight;", "((("},
		Negatives: []string{"var x = 1;", "var y = 2;", ")))"},
	}
	ds, err := buildDataset(c, features.SetAll, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 {
		t.Fatalf("dataset kept %d samples, want 3 parseable", ds.Len())
	}
}
