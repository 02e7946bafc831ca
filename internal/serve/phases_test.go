package serve

import (
	"context"
	"testing"
	"time"

	"adwars/internal/experiments"
	"adwars/internal/jsast"
	"adwars/internal/simworld"
)

// phaseRuns is how many times BenchmarkClassifyPhases runs each phase on
// each script; it keeps the fastest.
const phaseRuns = 40

// BenchmarkClassifyPhases splits what /v1/classify computes for a script
// into lex (Tokenize), grammar (ParseAndUnpack less lex), walk
// (ProjectProgram onto the vocabulary) and score (Decision), over the
// classify_scripts workload's pool: the live scripts of a tenth-scale
// world of seed 1, against the headline model trained on that world's
// retrospective corpus. A phase's figure is, per script, the fastest of
// phaseRuns runs, averaged over the pool: the best case, which is what the
// workload's latency_us (each request's fastest round trip) sees.
//
//	go test -run '^$' -bench ClassifyPhases -benchtime 1x ./internal/serve
func BenchmarkClassifyPhases(b *testing.B) {
	ctx := context.Background()
	retro, err := experiments.NewLab(simworld.Scaled(1, 10)).RunRetrospective(ctx, experiments.RetroConfig{Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := experiments.TrainHeadlineModel(&experiments.Corpus{Positives: retro.CorpusPos, Negatives: retro.CorpusNeg},
		1, experiments.PipelineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	set, vocab, err := snap.Projection()
	if err != nil {
		b.Fatal(err)
	}
	live, err := experiments.NewLab(simworld.Scaled(1, 10)).RunLive(ctx, experiments.LiveConfig{})
	if err != nil {
		b.Fatal(err)
	}
	var srcs []string
	var progs []*jsast.Program
	for _, s := range live.Scripts[:min(len(live.Scripts), 512)] {
		if prog, _, err := jsast.ParseAndUnpack(s.Source); err == nil {
			srcs, progs = append(srcs, s.Source), append(progs, prog)
		}
	}
	fastest := func(f func()) float64 {
		best := time.Duration(1 << 62)
		for range phaseRuns {
			start := time.Now()
			f()
			best = min(best, time.Since(start))
		}
		return float64(best) / 1e3
	}
	b.ResetTimer()
	var lex, grammar, walk, score float64
	for range b.N {
		lex, grammar, walk, score = 0, 0, 0, 0
		for i, src := range srcs {
			l := fastest(func() { jsast.Tokenize(src) })
			lex += l
			grammar += fastest(func() { jsast.ParseAndUnpack(src) }) - l
			walk += fastest(func() { vocab.ProjectProgram(progs[i], set) })
			sample := vocab.ProjectProgram(progs[i], set)
			score += fastest(func() { snap.Model.Decision(sample) })
		}
	}
	n := float64(len(srcs))
	b.ReportMetric(n, "scripts")
	b.ReportMetric(lex/n, "lex-us")
	b.ReportMetric(grammar/n, "grammar-us")
	b.ReportMetric(walk/n, "walk-us")
	b.ReportMetric(score/n, "score-us")
	b.ReportMetric((lex+grammar+walk+score)/n, "total-us")
}
