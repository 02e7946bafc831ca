package ml_test

import (
	"context"
	"testing"

	"adwars/internal/experiments"
	"adwars/internal/features"
	"adwars/internal/ml"
	"adwars/internal/simworld"
)

// TestCompiledDecisionMatchesOracleOnCorpus is the scorer differential on
// real material: the headline model trained on the Table 3 corpus of a
// 1/20-scale world, held to the naive oracle bit for bit — ensemble and
// every round — on each corpus script and each script the live crawl
// found, and scoring them without allocating.
func TestCompiledDecisionMatchesOracleOnCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls a 1/20-scale world and trains the headline model; skipped in -short")
	}
	lab := experiments.NewLab(simworld.Scaled(2, 20))
	retro, err := lab.RunRetrospective(context.Background(), experiments.RetroConfig{Months: lab.RetroMonths(2)})
	if err != nil {
		t.Fatal(err)
	}
	corpus := &experiments.Corpus{Positives: retro.CorpusPos, Negatives: retro.CorpusNeg}
	snap, err := experiments.TrainHeadlineModel(corpus, 2, experiments.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	live, err := lab.RunLive(context.Background(), experiments.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	scripts := append(append([]string(nil), corpus.Positives...), corpus.Negatives...)
	for _, s := range live.Scripts {
		scripts = append(scripts, s.Source)
	}

	vocab := features.NewVocab(snap.Vocab)
	var samples []features.Sample
	for _, src := range scripts {
		fs, err := features.ExtractSource(src, features.SetKeyword)
		if err != nil {
			continue // unparseable scripts drop out of the corpus too
		}
		samples = append(samples, vocab.Project(fs))
		ml.AssertMatchesOracle(t, snap.Model, samples[len(samples)-1])
	}
	if len(samples) < 300 {
		t.Fatalf("only %d scripts scored; differential too weak", len(samples))
	}
	total, distinct := snap.Model.NumSupportVectors(), snap.Model.NumDistinctVectors()
	t.Logf("%d scripts bit-identical; %d rounds, %d support vectors, %d distinct",
		len(samples), snap.Model.Rounds(), total, distinct)
	if distinct == 0 || distinct > total {
		t.Errorf("%d distinct of %d support vectors", distinct, total)
	}

	i := 0
	if allocs := testing.AllocsPerRun(len(samples), func() {
		snap.Model.Decision(samples[i%len(samples)])
		i++
	}); allocs != 0 {
		t.Errorf("Decision allocates %v times per call on the headline model", allocs)
	}
}
