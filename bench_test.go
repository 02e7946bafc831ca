package adwars

// One benchmark per table and figure of the paper's evaluation (see the
// per-experiment index in DESIGN.md). Each benchmark regenerates its
// artifact end to end on a 1/20-scale world; cmd/adwars-report produces
// the full-scale rows recorded in EXPERIMENTS.md.

import (
	"context"
	"sync"
	"testing"

	"adwars/internal/antiadblock"
	"adwars/internal/experiments"
	"adwars/internal/signatures"
	"adwars/internal/simworld"
)

var (
	benchOnce  sync.Once
	benchLab   *experiments.Lab
	benchRetro *experiments.RetroResult
	benchErr   error
)

// benchSetup builds the shared scaled lab and its retrospective run once.
func benchSetup(b *testing.B) (*experiments.Lab, *experiments.RetroResult) {
	b.Helper()
	benchOnce.Do(func() {
		benchLab = experiments.NewLab(simworld.Scaled(42, 20))
		benchRetro, benchErr = benchLab.RunRetrospective(context.Background(),
			experiments.RetroConfig{Months: benchLab.RetroMonths(2)})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchLab, benchRetro
}

// BenchmarkFig1aAAKEvolution regenerates Figure 1(a): the Anti-Adblock
// Killer List's rule-class composition over time.
func BenchmarkFig1aAAKEvolution(b *testing.B) {
	lab, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(lab.Lists.AAK, lab.World.Cfg.End)
		if len(r.Points) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFig1bAWRLEvolution regenerates Figure 1(b) for the Adblock
// Warning Removal List.
func BenchmarkFig1bAWRLEvolution(b *testing.B) {
	lab, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(lab.Lists.AWRL, lab.World.Cfg.End)
		if len(r.Points) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkFig1cEasyListEvolution regenerates Figure 1(c) for the
// anti-adblock sections of EasyList.
func BenchmarkFig1cEasyListEvolution(b *testing.B) {
	lab, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(lab.Lists.EasyListAA, lab.World.Cfg.End)
		if len(r.Points) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkTable1RankDistribution regenerates Table 1: listed domains per
// Alexa rank bucket.
func BenchmarkTable1RankDistribution(b *testing.B) {
	lab, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := lab.Table1()
		if len(t.Counts) != 2 {
			b.Fatal("missing lists")
		}
	}
}

// BenchmarkFig2Categories regenerates Figure 2: listed-domain categories.
func BenchmarkFig2Categories(b *testing.B) {
	lab, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := lab.Fig2()
		if len(f.Percent) != 2 {
			b.Fatal("missing lists")
		}
	}
}

// BenchmarkExceptionRatios regenerates the §3.3 comparison: exception to
// non-exception domain ratios, overlap, and churn.
func BenchmarkExceptionRatios(b *testing.B) {
	lab, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := lab.Overlap()
		if o.Overlap == 0 {
			b.Fatal("no overlap")
		}
	}
}

// BenchmarkFig3AdditionLag regenerates Figure 3: the cross-list rule
// addition lag CDF over shared domains.
func BenchmarkFig3AdditionLag(b *testing.B) {
	lab, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := lab.Fig3()
		if f.CELFirst == 0 {
			b.Fatal("no shared-domain lags")
		}
	}
}

// BenchmarkFig5MissingSnapshots regenerates Figure 5 by crawling archived
// months and tallying not-archived / outdated / partial snapshots.
func BenchmarkFig5MissingSnapshots(b *testing.B) {
	lab, _ := benchSetup(b)
	months := lab.RetroMonths(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.RunRetrospective(context.Background(),
			experiments.RetroConfig{Months: months})
		if err != nil {
			b.Fatal(err)
		}
		if r.RenderFig5() == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig6aHTTPTriggers regenerates Figure 6(a): sites triggering
// HTTP rules per month under the list version in force.
func BenchmarkFig6aHTTPTriggers(b *testing.B) {
	lab, _ := benchSetup(b)
	months := lab.RetroMonths(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.RunRetrospective(context.Background(),
			experiments.RetroConfig{Months: months})
		if err != nil {
			b.Fatal(err)
		}
		last := r.Months[len(r.Months)-1]
		if last.HTTPTriggered["Anti-Adblock Killer"] == 0 {
			b.Fatal("AAK triggered nothing")
		}
	}
}

// BenchmarkFig6bHTMLTriggers regenerates Figure 6(b): sites triggering
// HTML element rules per month (near zero, as in the paper).
func BenchmarkFig6bHTMLTriggers(b *testing.B) {
	_, retro := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, m := range retro.Months {
			for _, n := range experiments.ListNames {
				total += m.HTMLTriggered[n]
			}
		}
		_ = total
	}
}

// BenchmarkFig7DetectionDelay regenerates Figure 7: the CDF of days from
// deployment to first matching rule, per list.
func BenchmarkFig7DetectionDelay(b *testing.B) {
	lab, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := lab.Fig7(0)
		if len(f.Delays) != 2 {
			b.Fatal("missing lists")
		}
	}
}

// BenchmarkLiveCoverage regenerates the §4.3 live-web crawl headline
// numbers.
func BenchmarkLiveCoverage(b *testing.B) {
	lab, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := lab.RunLive(context.Background(), experiments.LiveConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if r.HTTPTriggered["Anti-Adblock Killer"] == 0 {
			b.Fatal("no live coverage")
		}
	}
}

// BenchmarkTable2FeatureExtraction regenerates Table 2: context:text
// features from a BlockAdBlock-style script.
func BenchmarkTable2FeatureExtraction(b *testing.B) {
	script := antiadblock.ReferenceBlockAdBlock
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(script)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no features")
		}
	}
}

// BenchmarkTable3Classifier regenerates Table 3: the cross-validated
// accuracy sweep over feature sets, feature counts, and classifiers.
func BenchmarkTable3Classifier(b *testing.B) {
	_, retro := benchSetup(b)
	corpus := &experiments.Corpus{Positives: retro.CorpusPos, Negatives: retro.CorpusNeg}
	cfg := experiments.Table3Config{TopK: []int{100, 1000}, Folds: 5, Seed: 42, MaxSamples: 330}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(corpus, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkLiveScriptDetection regenerates the §5 out-of-sample test:
// classify anti-adblock scripts from the live crawl with the trained
// model (the paper's 92.5% TP rate).
func BenchmarkLiveScriptDetection(b *testing.B) {
	lab, retro := benchSetup(b)
	corpus := &experiments.Corpus{Positives: retro.CorpusPos, Negatives: retro.CorpusNeg}
	live, err := lab.RunLive(context.Background(), experiments.LiveConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.LiveModelTest(corpus, live.Scripts, 5000, 42, experiments.PipelineConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Scripts == 0 {
			b.Fatal("no live scripts")
		}
	}
}

// BenchmarkSignatureBaseline runs the signature-based detection baseline
// (Storey et al.) over the corpus, the contrast §5 draws with the ML
// approach.
func BenchmarkSignatureBaseline(b *testing.B) {
	_, retro := benchSetup(b)
	det := signatures.New(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp, fn, _, _ := det.Evaluate(retro.CorpusPos, retro.CorpusNeg)
		if tp+fn == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// BenchmarkCircumvention simulates adblock users visiting every deployed
// site under each anti-adblock list — the end-to-end effectiveness the
// lists exist for (§3's mechanics made executable).
func BenchmarkCircumvention(b *testing.B) {
	lab, _ := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := lab.Circumvention(0, lab.World.Cfg.End)
		if res.Deployed == 0 {
			b.Fatal("no deployed sites")
		}
	}
}
