package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"adwars/internal/crawler"
	"adwars/internal/simworld"
	"adwars/internal/wayback"
)

// resilienceLab builds a small private lab (top-100 crawl) so fault and
// cancellation runs don't disturb the shared test lab.
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

// cutAfterFirstMonth cancels itself the first time it is asked for its
// error, after answering that first question with nil. Without archive
// faults the crawl asks once per month, when the month's sites are all
// crawled, so the first month completes and the second is cut.
type cutAfterFirstMonth struct {
	context.Context
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cutAfterFirstMonth) Err() error {
	err := c.Context.Err()
	c.once.Do(c.cancel)
	return err
}

// TestRetroRerunAfterCancel is the recovery the crawl has: a PrepareReplay
// cancelled after its first month's crawl returns context.Canceled and no
// run — whether the cut lands in the next month's crawl or, with one month
// scheduled, while that month's sites are still being prepared for the
// replay — and running it again on the same lab renders the figures of an
// uninterrupted run on a lab that was never cancelled.
func TestRetroRerunAfterCancel(t *testing.T) {
	months := resilienceLab().RetroMonths(6)
	want, err := resilienceLab().RunRetrospective(context.Background(), RetroConfig{Months: months})
	if err != nil {
		t.Fatal(err)
	}

	l := resilienceLab()
	for _, cut := range [][]time.Time{months, months[:1]} {
		ctx, cancel := context.WithCancel(context.Background())
		var metrics crawler.Metrics
		run, err := l.PrepareReplay(&cutAfterFirstMonth{Context: ctx, cancel: cancel}, RetroConfig{Months: cut, Metrics: &metrics})
		cancel()
		if run != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("%d months, cancelled: PrepareReplay returned (run %t, %v), want (no run, context.Canceled)", len(cut), run != nil, err)
		}
		if metrics.PagesFetched.Load() == 0 {
			t.Fatalf("%d months: the cancelled run crawled no month before it was cut", len(cut))
		}
	}

	run, err := l.PrepareReplay(context.Background(), RetroConfig{Months: months})
	if err != nil {
		t.Fatal(err)
	}
	got := run.Replay()
	if g, w := got.RenderFig5(), want.RenderFig5(); g != w {
		t.Errorf("Figure 5 diverged after a cancelled run:\nwant:\n%s\ngot:\n%s", w, g)
	}
	if g, w := got.RenderFig6(), want.RenderFig6(); g != w {
		t.Errorf("Figure 6 diverged after a cancelled run:\nwant:\n%s\ngot:\n%s", w, g)
	}
}
