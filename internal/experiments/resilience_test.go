package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"adwars/internal/crawler"
	"adwars/internal/simworld"
	"adwars/internal/wayback"
)

// resilienceLab builds a small private lab (top-100 crawl) so fault and
// checkpoint runs don't disturb the shared test lab.
func resilienceLab() *Lab { return NewLab(simworld.Scaled(3, 50)) }

// TestRetroFaultEquivalence is the PR's headline acceptance claim at full
// pipeline scope: a 10% transient fault rate must not change a single
// Figure 5 or Figure 6 number, because the crawl engine retries every
// injected fault to completion.
func TestRetroFaultEquivalence(t *testing.T) {
	l := resilienceLab()
	months := l.RetroMonths(6)
	clean, err := l.RunRetrospective(context.Background(), RetroConfig{Months: months})
	if err != nil {
		t.Fatal(err)
	}

	var metrics crawler.Metrics
	faulty, err := l.RunRetrospective(context.Background(), RetroConfig{
		Months:  months,
		Faults:  wayback.DefaultFaultConfig(0.10, 0), // Seed 0: inherit lab seed
		Metrics: &metrics,
	})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := faulty.RenderFig5(), clean.RenderFig5(); got != want {
		t.Errorf("Figure 5 diverged under faults:\nclean:\n%s\nfaulty:\n%s", want, got)
	}
	if got, want := faulty.RenderFig6(), clean.RenderFig6(); got != want {
		t.Errorf("Figure 6 diverged under faults:\nclean:\n%s\nfaulty:\n%s", want, got)
	}
	snap := &metrics
	if snap.TransientFailures.Load() == 0 || snap.Retries.Load() == 0 {
		t.Fatalf("fault injection idle: %s", snap)
	}
	if snap.RetriesExhausted.Load() != 0 {
		t.Fatalf("%d requests exhausted the retry budget (equivalence broken)", snap.RetriesExhausted.Load())
	}
	// The corpora feed §5; they must survive faults unchanged too.
	if len(faulty.CorpusPos) != len(clean.CorpusPos) || len(faulty.CorpusNeg) != len(clean.CorpusNeg) {
		t.Errorf("corpus sizes diverged: pos %d/%d neg %d/%d",
			len(faulty.CorpusPos), len(clean.CorpusPos),
			len(faulty.CorpusNeg), len(clean.CorpusNeg))
	}
}

// TestRetroCheckpointResume interrupts the study after a prefix of months,
// then resumes from the journal: the final figures must be byte-identical
// to an uninterrupted run, with the journaled site-months restored rather
// than refetched.
func TestRetroCheckpointResume(t *testing.T) {
	faults := wayback.DefaultFaultConfig(0.10, 0)
	l := resilienceLab()
	months := l.RetroMonths(6)
	want, err := l.RunRetrospective(context.Background(), RetroConfig{
		Months: months, Faults: faults,
	})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "retro.jsonl")
	// "Killed" first run: only the first 4 months complete.
	if _, err := l.RunRetrospective(context.Background(), RetroConfig{
		Months: months[:4], Faults: faults, CheckpointPath: path,
	}); err != nil {
		t.Fatal(err)
	}

	var metrics crawler.Metrics
	got, err := l.RunRetrospective(context.Background(), RetroConfig{
		Months: months, Faults: faults,
		CheckpointPath: path, Resume: true, Metrics: &metrics,
	})
	if err != nil {
		t.Fatal(err)
	}

	if metrics.Resumed.Load() == 0 {
		t.Fatal("resume refetched everything instead of restoring the journal")
	}
	if g, w := got.RenderFig5(), want.RenderFig5(); g != w {
		t.Errorf("Figure 5 diverged after resume:\nwant:\n%s\ngot:\n%s", w, g)
	}
	if g, w := got.RenderFig6(), want.RenderFig6(); g != w {
		t.Errorf("Figure 6 diverged after resume:\nwant:\n%s\ngot:\n%s", w, g)
	}
}

// TestRetroResumeFromEveryCut: a study killed at any byte of its journal
// resumes to the figures of a clean run. What a cut restores depends only on
// which lines it holds whole (crawler's TestJournalCrashAtEveryByte reopens
// every byte), so the study resumes from each line's end and from the middle
// of each line, torn.
func TestRetroResumeFromEveryCut(t *testing.T) {
	l := resilienceLab()
	months := l.RetroMonths(6)
	cfg := RetroConfig{TopN: 10, Months: months[len(months)-3:]}
	want, err := l.RunRetrospective(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg.CheckpointPath = filepath.Join(dir, "whole.jsonl")
	if _, err := l.RunRetrospective(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	var cuts []int
	for start := 0; start < len(data); {
		end := start + bytes.IndexByte(data[start:], '\n') + 1
		cuts = append(cuts, (start+end)/2, end)
		start = end
	}
	cfg.CheckpointPath, cfg.Resume = filepath.Join(dir, "cut.jsonl"), true
	for _, n := range cuts {
		if err := os.WriteFile(cfg.CheckpointPath, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		var metrics crawler.Metrics
		cfg.Metrics = &metrics
		got, err := l.RunRetrospective(context.Background(), cfg)
		if err != nil {
			t.Fatalf("cut at %d of %d: %v", n, len(data), err)
		}
		if g, w := got.RenderFig5()+got.RenderFig6(), want.RenderFig5()+want.RenderFig6(); g != w {
			t.Fatalf("cut at %d of %d (%d site-months restored): figures diverged:\nwant:\n%s\ngot:\n%s", n, len(data), metrics.Resumed.Load(), w, g)
		}
		// The whole journal (its last cut) restores every site-month of it.
		if n == len(data) && metrics.Resumed.Load() != int64(len(cuts)/2-1) {
			t.Fatalf("the whole journal restored %d site-months, it holds %d", metrics.Resumed.Load(), len(cuts)/2-1)
		}
	}
	if len(cuts) < 20 {
		t.Fatalf("%d cuts: the journal holds too few lines to exercise resume", len(cuts))
	}
}
