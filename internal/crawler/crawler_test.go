package crawler

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"adwars/internal/abp"
	"adwars/internal/wayback"
	"adwars/internal/web"
)

type stubSource map[string]*web.Page

func (s stubSource) PageAt(domain string, t time.Time) (*web.Page, bool) {
	p, ok := s[domain]
	return p, ok
}

func (s stubSource) LivePage(domain string) (*web.Page, bool) {
	p, ok := s[domain]
	return p, ok
}

func buildWorld(n int) (*wayback.Archive, stubSource, []string) {
	src := stubSource{}
	domains := make([]string, n)
	for i := range domains {
		domains[i] = fmt.Sprintf("crawlee%04d.com", i)
		p := web.NewPage(domains[i], domains[i])
		p.AddRequest("http://cdn."+domains[i]+"/app.js", abp.TypeScript)
		p.AddRequest("http://cdn."+domains[i]+"/style.css", abp.TypeStylesheet)
		p.AddRequest("http://img."+domains[i]+"/hero.png", abp.TypeImage)
		src[domains[i]] = p
	}
	cfg := wayback.DefaultConfig(7)
	cfg.Robots, cfg.Admin, cfg.Undefined = 10, 2, 3
	return wayback.New(src, domains, cfg), src, domains
}

func TestCrawlMonth(t *testing.T) {
	a, _, domains := buildWorld(400)
	m := time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC)
	res, err := CrawlMonth(context.Background(), a, domains, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(domains) {
		t.Fatalf("results = %d", len(res.Results))
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != len(domains) {
		t.Fatalf("counts sum to %d", total)
	}
	if res.Counts[StatusExcluded] != 15 {
		t.Fatalf("excluded = %d, want 15", res.Counts[StatusExcluded])
	}
	if res.Counts[StatusOK] == 0 {
		t.Fatal("no successful crawls")
	}
	for i, r := range res.Results {
		if r.Domain != domains[i] {
			t.Fatal("result order must match input order")
		}
		if (r.Status == StatusOK) != (r.Snapshot != nil) {
			t.Fatalf("snapshot presence inconsistent for %s (%v)", r.Domain, r.Status)
		}
	}
}

// setProcs runs the rest of the test at GOMAXPROCS n and restores the
// previous value when it ends. A test that calls it must not be parallel.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestCrawlMonthDeterministic(t *testing.T) {
	a, _, domains := buildWorld(200)
	m := time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC)
	setProcs(t, 1)
	r1, err := CrawlMonth(context.Background(), a, domains, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 3)
	r2, err := CrawlMonth(context.Background(), a, domains, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Results {
		if r1.Results[i].Status != r2.Results[i].Status {
			t.Fatalf("GOMAXPROCS changed status of %s", r1.Results[i].Domain)
		}
	}
}

func TestCrawlMonthCancellation(t *testing.T) {
	a, _, domains := buildWorld(300)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CrawlMonth(ctx, a, domains, time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC), Config{})
	if err == nil {
		t.Fatal("cancelled crawl must return an error")
	}
}

func TestCrawlLive(t *testing.T) {
	_, src, domains := buildWorld(150)
	// Make a few domains unreachable.
	delete(src, domains[3])
	delete(src, domains[77])
	res, err := CrawlLive(context.Background(), src, domains, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reachable := 0
	for _, r := range res {
		if r.Page != nil {
			reachable++
		}
	}
	if reachable != len(domains)-2 {
		t.Fatalf("reachable = %d, want %d", reachable, len(domains)-2)
	}
}

func TestCrawlLiveCancellation(t *testing.T) {
	_, src, domains := buildWorld(50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CrawlLive(ctx, src, domains, Config{}); err == nil {
		t.Fatal("cancelled live crawl must return an error")
	}
}

func TestStatusString(t *testing.T) {
	names := map[Status]string{
		StatusOK: "ok", StatusExcluded: "excluded",
		StatusNotArchived: "not-archived", StatusOutdated: "outdated",
		StatusPartial: "partial", StatusError: "error",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d = %q, want %q", s, s.String(), want)
		}
	}
}

func TestMarkPartialsCutoff(t *testing.T) {
	// Hand-build a month result with one tiny HAR among big ones.
	mk := func(urls int) *wayback.Snapshot {
		p := web.NewPage("x.com", "x")
		for i := 0; i < urls; i++ {
			p.AddRequest(fmt.Sprintf("http://x.com/r%d.js", i), abp.TypeScript)
		}
		// Build HAR through the crawler path by fetching is overkill;
		// reuse Snapshot with a direct HAR.
		snap := &wayback.Snapshot{Ref: wayback.SnapshotRef{Domain: "x.com"}, Page: p}
		l := newHARFor(p, urls)
		snap.HAR = l
		return snap
	}
	m := &MonthResult{Results: []SiteResult{
		{Domain: "a.com", Status: StatusOK, Snapshot: mk(200)},
		{Domain: "b.com", Status: StatusOK, Snapshot: mk(200)},
		{Domain: "c.com", Status: StatusOK, Snapshot: mk(0)},
	}}
	markPartials(m)
	if m.Results[2].Status != StatusPartial {
		t.Fatalf("tiny HAR not marked partial: %v", m.Results[2].Status)
	}
	if m.Results[0].Status != StatusOK || m.Results[1].Status != StatusOK {
		t.Fatal("normal HARs must stay OK")
	}
}

// buildFaultyWorld is buildWorld with transient fault injection enabled.
func buildFaultyWorld(n int, rate float64) (*wayback.Archive, stubSource, []string) {
	src := stubSource{}
	domains := make([]string, n)
	for i := range domains {
		domains[i] = fmt.Sprintf("crawlee%04d.com", i)
		p := web.NewPage(domains[i], domains[i])
		p.AddRequest("http://cdn."+domains[i]+"/app.js", abp.TypeScript)
		p.AddRequest("http://cdn."+domains[i]+"/style.css", abp.TypeStylesheet)
		p.AddRequest("http://img."+domains[i]+"/hero.png", abp.TypeImage)
		src[domains[i]] = p
	}
	return faultyArchive(src, domains, rate), src, domains
}

// faultyArchive is buildFaultyWorld's archive over any page source.
func faultyArchive(src wayback.SiteSource, domains []string, rate float64) *wayback.Archive {
	cfg := wayback.DefaultConfig(7)
	cfg.Robots, cfg.Admin, cfg.Undefined = 10, 2, 3
	cfg.Faults = wayback.DefaultFaultConfig(rate, 7)
	return wayback.New(src, domains, cfg)
}

// cancelAfter serves its source's pages and cancels a crawl on the nth.
type cancelAfter struct {
	wayback.SiteSource
	served atomic.Int64
	n      int64
	cancel context.CancelFunc
}

func (c *cancelAfter) PageAt(domain string, t time.Time) (*web.Page, bool) {
	if c.served.Add(1) == c.n {
		c.cancel()
	}
	return c.SiteSource.PageAt(domain, t)
}

// TestCrawlMonthFaultEquivalence is the headline correctness claim at the
// crawler level: a 10% transient-failure archive yields exactly the same
// per-site statuses as a clean archive — zero StatusError attributable to
// transients — because the retry budget absorbs every injected fault.
func TestCrawlMonthFaultEquivalence(t *testing.T) {
	clean, _, domains := buildWorld(400)
	faulty, _, _ := buildFaultyWorld(400, 0.10)
	m := time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC)
	want, err := CrawlMonth(context.Background(), clean, domains, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var metrics Metrics
	got, err := CrawlMonth(context.Background(), faulty, domains, m, Config{Metrics: &metrics})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		if got.Results[i].Status != want.Results[i].Status {
			t.Fatalf("%s: faulty %v != clean %v (err: %v)", domains[i],
				got.Results[i].Status, want.Results[i].Status, got.Results[i].Err)
		}
	}
	if got.Counts[StatusError] != 0 {
		t.Fatalf("transient faults leaked into StatusError: %d", got.Counts[StatusError])
	}
	snap := &metrics
	if snap.TransientFailures.Load() == 0 || snap.Retries.Load() == 0 {
		t.Fatalf("faults were not exercised: %s", snap)
	}
	if snap.RetriesExhausted.Load() != 0 {
		t.Fatalf("retry budget exhausted %d times", snap.RetriesExhausted.Load())
	}
}

// TestCrawlMonthOutageBreaker drives a full-archive outage through the
// shared breaker: the crawl must still complete with zero errors, and the
// breaker must have opened (shed load) along the way.
func TestCrawlMonthOutageBreaker(t *testing.T) {
	src := stubSource{}
	domains := make([]string, 300)
	for i := range domains {
		domains[i] = fmt.Sprintf("crawlee%04d.com", i)
		p := web.NewPage(domains[i], domains[i])
		p.AddRequest("http://cdn."+domains[i]+"/app.js", abp.TypeScript)
		src[domains[i]] = p
	}
	cfg := wayback.DefaultConfig(7)
	cfg.Faults = wayback.FaultConfig{OutageRate: 1, OutageDepth: failureThreshold + 2, Seed: 7}
	a := wayback.New(src, domains, cfg)

	// Each request fails past the threshold in a row, within a budget that
	// outlasts the outage, so the breaker opens whichever browser trips it.
	var metrics Metrics
	br := NewBreaker(&metrics)
	res, err := CrawlMonth(context.Background(), a, domains,
		time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC),
		Config{Metrics: &metrics, Breaker: br,
			Retry: RetryPolicy{MaxAttempts: failureThreshold + 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[StatusError] != 0 {
		t.Fatalf("outage leaked into StatusError: %d", res.Counts[StatusError])
	}
	snap := &metrics
	if snap.BreakerOpens.Load() == 0 {
		t.Fatalf("breaker never opened during a full outage: %s", snap)
	}
	if snap.BreakerSheds.Load() == 0 {
		t.Fatalf("breaker shed no load during a full outage: %s", snap)
	}
}

// TestCrawlMonthPartialOnCancel verifies cancellation no longer discards
// completed work: the partial MonthResult comes back alongside ctx.Err().
func TestCrawlMonthPartialOnCancel(t *testing.T) {
	a, _, domains := buildWorld(300)
	ctx, cancel := context.WithCancel(context.Background())
	month := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg := Config{}
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	res, err := CrawlMonth(ctx, a, domains, month, cfg)
	if err == nil {
		// The crawl may win the race; retry with immediate cancellation
		// to at least pin the contract below.
		ctx2, cancel2 := context.WithCancel(context.Background())
		cancel2()
		res, err = CrawlMonth(ctx2, a, domains, month, cfg)
	}
	if err == nil {
		t.Skip("crawl completed before cancellation on this machine")
	}
	if res == nil {
		t.Fatal("cancelled crawl must return the partial MonthResult, not nil")
	}
	if len(res.Results) != len(domains) {
		t.Fatalf("partial result has %d slots, want %d", len(res.Results), len(domains))
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != len(domains) {
		t.Fatalf("partial counts sum to %d", total)
	}
	for _, r := range res.Results {
		if r.Status == StatusPending && r.Snapshot != nil {
			t.Fatal("pending result carries a snapshot")
		}
	}
}

// TestCrawlMonthResumeAfterCancel kills a faulty crawl mid-month from its
// page source, then resumes from the journal and checks the final result
// matches an uninterrupted run — without refetching journaled sites.
func TestCrawlMonthResumeAfterCancel(t *testing.T) {
	month := time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC)
	cleanArch, _, domains := buildFaultyWorld(300, 0.15)
	want, err := CrawlMonth(context.Background(), cleanArch, domains, month, Config{})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	// Interrupt: cancel after enough pages that a chunk of the month is
	// done but not all of it.
	_, src, _ := buildFaultyWorld(300, 0.15)
	ctx, cancel := context.WithCancel(context.Background())
	arch := faultyArchive(&cancelAfter{SiteSource: src, n: 100, cancel: cancel}, domains, 0.15)
	partial, err := CrawlMonth(ctx, arch, domains, month, Config{Journal: j})
	j.Close()
	if err == nil {
		t.Fatal("interrupted crawl should have been cancelled (fault rate too low?)")
	}
	if partial == nil || partial.Counts[StatusPending] == 0 {
		t.Fatal("cancellation should leave pending sites")
	}
	completedFirst := len(domains) - partial.Counts[StatusPending]
	if completedFirst == 0 {
		t.Fatal("cancellation left no completed work to resume from")
	}

	// Resume: journaled sites must be restored, not refetched.
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	arch2, _, _ := buildFaultyWorld(300, 0.15)
	var metrics Metrics
	got, err := CrawlMonth(context.Background(), arch2, domains, month,
		Config{Journal: j2, Metrics: &metrics})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Resumed.Load() == 0 {
		t.Fatal("no site-months restored from the journal")
	}
	if int(metrics.Resumed.Load()) < completedFirst {
		t.Fatalf("resumed %d < %d journaled", metrics.Resumed.Load(), completedFirst)
	}
	for i := range want.Results {
		if got.Results[i].Status != want.Results[i].Status {
			t.Fatalf("%s: resumed %v != uninterrupted %v", domains[i],
				got.Results[i].Status, want.Results[i].Status)
		}
	}
}

// TestCrawlLivePartialOnCancel pins the live-crawl half of the contract.
func TestCrawlLivePartialOnCancel(t *testing.T) {
	_, src, domains := buildWorld(100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CrawlLive(ctx, src, domains, Config{})
	if err == nil {
		t.Fatal("cancelled live crawl must surface ctx.Err()")
	}
	if res == nil || len(res) != len(domains) {
		t.Fatal("cancelled live crawl must return the partial slice")
	}
	for _, r := range res {
		if !r.Crawled && r.Page != nil {
			t.Fatal("uncrawled result carries a page")
		}
	}
}
