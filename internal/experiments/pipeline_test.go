package experiments

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"adwars/internal/antiadblock"
	"adwars/internal/artifact"
	"adwars/internal/features"
	"adwars/internal/simworld"
)

// pipelineCorpus generates a small labeled corpus straight from the script
// generators (no lab/crawl round trip) so the differential sweep stays
// fast enough for -race runs.
func pipelineCorpus(nPos, nNeg int, seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{}
	for i := 0; i < nPos; i++ {
		if i%2 == 0 {
			c.Positives = append(c.Positives, antiadblock.HTMLBaitScript("n", rng, antiadblock.GenOptions{}))
		} else {
			c.Positives = append(c.Positives, antiadblock.CanRunAdsScript("n", rng, antiadblock.GenOptions{}))
		}
	}
	kinds := antiadblock.BenignKinds()
	for i := 0; i < nNeg; i++ {
		c.Negatives = append(c.Negatives, antiadblock.BenignScript(kinds[i%len(kinds)], rng, antiadblock.GenOptions{}))
	}
	return c
}

// TestTable3ParallelMatchesSequential is the pipeline's end-to-end
// differential gate: the fanned-out sweep must produce exactly the
// one-worker sweep's Table 3 rows — same TP/FP rates, same feature counts —
// at every worker count.
func TestTable3ParallelMatchesSequential(t *testing.T) {
	c := pipelineCorpus(15, 60, 11)
	base := Table3Config{TopK: []int{20, 60}, Folds: 5, Seed: 4}

	seq := base
	seq.Pipeline = PipelineConfig{Workers: 1}
	want, err := Table3(c, seq)
	if err != nil {
		t.Fatal(err)
	}

	for _, pipe := range []PipelineConfig{
		{},           // default: GOMAXPROCS workers
		{Workers: 2}, // as many as the benchmark's cores
		{Workers: 3}, // does not divide the folds
		{Workers: 4}, // oversubscribed fan-out
	} {
		cfg := base
		cfg.Pipeline = pipe
		got, err := Table3(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pipeline %+v: Table 3 rows diverge from sequential reference\ngot:  %+v\nwant: %+v",
				pipe, got, want)
		}
	}
}

// TestSelectedVocabularyMatchesSequential asserts selection chooses a
// byte-identical vocabulary however wide extraction fanned out: same raw
// dataset, same surviving columns, same top-k order.
func TestSelectedVocabularyMatchesSequential(t *testing.T) {
	c := pipelineCorpus(12, 48, 23).trim(0, 9)
	for _, set := range features.Sets {
		rawsSeq, err := buildDatasetRaw(c, []features.Set{set}, PipelineConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		rawSeq := rawsSeq[0]
		wantSel := rawSeq.SelectPipeline(50)
		for _, pipe := range []PipelineConfig{{}, {Workers: 6}} {
			raws, err := buildDatasetRaw(c, []features.Set{set}, pipe)
			if err != nil {
				t.Fatal(err)
			}
			raw := raws[0]
			if !reflect.DeepEqual(raw.Vocab, rawSeq.Vocab) {
				t.Fatalf("set %v pipe %+v: raw vocabulary diverges", set, pipe)
			}
			if !reflect.DeepEqual(raw.Samples, rawSeq.Samples) {
				t.Fatalf("set %v pipe %+v: samples diverge", set, pipe)
			}
			sel := raw.SelectPipeline(50)
			if !reflect.DeepEqual(sel.Vocab, wantSel.Vocab) {
				t.Fatalf("set %v pipe %+v: selected vocabulary diverges\ngot:  %v\nwant: %v",
					set, pipe, sel.Vocab, wantSel.Vocab)
			}
		}
	}
}

// TestLiveModelTestParallelMatchesSequential covers the live-script leg:
// fanned-out extraction and Gram fill must reproduce the one-worker result
// exactly.
func TestLiveModelTestParallelMatchesSequential(t *testing.T) {
	train := pipelineCorpus(14, 56, 31)
	rng := rand.New(rand.NewSource(5))
	var live []LiveScript
	for i := 0; i < 12; i++ {
		src := antiadblock.HTMLBaitScript("live", rng, antiadblock.GenOptions{})
		live = append(live, LiveScript{Rank: 6000 + i, Source: src})
	}
	want, err := LiveModelTest(train, live, 5000, 2, PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := LiveModelTest(train, live, 5000, 2, PipelineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("live test diverges: parallel %+v, sequential %+v", *got, *want)
	}
}

// TestTable3Pinned holds Table 3 to the parent commit, not merely to
// itself: the checksum of the rendered sweep on the whole-stack
// benchmark's configuration (bench/pipeline.go: a fortieth of paper
// scale, world 1) is the literal commit fe48e85 computed, before the SMO
// decision kernel was blocked. A solver change may be faster; it may not
// flip one held-out prediction in 18 ten-fold cross-validations.
func TestTable3Pinned(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls and sweeps Table 3 at 1/40 scale; skipped in -short")
	}
	l := NewLab(simworld.Scaled(1, 40))
	r, err := l.RunRetrospective(context.Background(), RetroConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table3(&Corpus{Positives: r.CorpusPos, Negatives: r.CorpusNeg}, Table3Config{
		TopK: []int{100, 1000, 10000}, Folds: 10, Seed: 1, MaxSamples: 1650,
	})
	if err != nil {
		t.Fatal(err)
	}
	text := RenderTable3(rows)
	if got, want := artifact.Checksum([]byte(text)), uint64(0x2b4034082d919bda); got != want {
		t.Errorf("Table 3 checksums to %#016x, commit fe48e85 computed %#016x:\n%s", got, want, text)
	}
}

// TestExtractAllSetsMatchExtractSource: one parse serving every feature set
// gives, per set and per script, what parsing the script again for that set
// alone gives, error slots included.
func TestExtractAllSetsMatchExtractSource(t *testing.T) {
	c := pipelineCorpus(15, 60, 11)
	srcs := append(append(append([]string(nil), c.Positives...), c.Negatives...), "function (")
	for _, workers := range []int{1, 4} {
		sets, errs, err := features.ExtractAll(context.Background(), srcs, features.Sets, workers)
		if err != nil {
			t.Fatal(err)
		}
		if errs[len(srcs)-1] == nil {
			t.Fatalf("workers %d: the unparseable script has no error", workers)
		}
		for s, set := range features.Sets {
			for i, src := range srcs {
				want, wantErr := features.ExtractSource(src, set)
				if (errs[i] != nil) != (wantErr != nil) {
					t.Fatalf("workers %d set %v: slot %d error %v, ExtractSource's %v", workers, set, i, errs[i], wantErr)
				}
				if !reflect.DeepEqual(sets[s][i], want) {
					t.Fatalf("workers %d set %v: slot %d features differ from ExtractSource", workers, set, i)
				}
			}
		}
	}
}

// TestTable3CollapsedBudgetsExact: cross-validating each distinct effective
// budget once is invisible. A sweep over unsorted and repeated budgets, some
// past every set's vocabulary, equals row for row, rate bits included, the
// sweeps of each budget alone.
func TestTable3CollapsedBudgetsExact(t *testing.T) {
	c := pipelineCorpus(15, 60, 11)
	cfg := Table3Config{TopK: []int{60, 20, 10000, 20}, Folds: 5, Seed: 4}
	got, err := Table3(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Table3Row, len(got))
	for j, k := range cfg.TopK {
		one := cfg
		one.TopK = []int{k}
		rows, err := Table3(c, one)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2*len(features.Sets) {
			t.Fatalf("budget %d alone: %d rows", k, len(rows))
		}
		for s := range features.Sets { // set-major, as one sweep orders them
			copy(want[(s*len(cfg.TopK)+j)*2:], rows[2*s:2*s+2])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Classifier != w.Classifier || g.FeatureSet != w.FeatureSet || g.NumFeatures != w.NumFeatures ||
			math.Float64bits(g.TPRate) != math.Float64bits(w.TPRate) ||
			math.Float64bits(g.FPRate) != math.Float64bits(w.FPRate) {
			t.Fatalf("row %d: %+v, budgets alone give %+v", i, g, w)
		}
	}
}

// TestTable3RefusesBadBudgets: no budget, or a budget below one, is an
// error before any script is parsed, never a panic or a table of empty
// models.
func TestTable3RefusesBadBudgets(t *testing.T) {
	c := pipelineCorpus(15, 60, 11)
	for _, topK := range [][]int{nil, {}, {0}, {-5}, {100, 0}, {20, -1, 60}} {
		rows, err := Table3(c, Table3Config{TopK: topK, Folds: 5, Seed: 4})
		if err == nil {
			t.Fatalf("TopK %v: %d rows and no error", topK, len(rows))
		}
	}
}
