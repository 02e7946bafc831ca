package crawler

import (
	"context"
	"errors"
	"fmt"
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
	res, err := CrawlMonth(context.Background(), a, domains, m, nil)
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
	r1, err := CrawlMonth(context.Background(), a, domains, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 3)
	r2, err := CrawlMonth(context.Background(), a, domains, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Results {
		if r1.Results[i].Status != r2.Results[i].Status {
			t.Fatalf("GOMAXPROCS changed status of %s", r1.Results[i].Domain)
		}
	}
}

// TestCrawlMonthCancellation: a month cancelled before it starts or part
// way through returns no result and context.Canceled, and counts nothing.
func TestCrawlMonthCancellation(t *testing.T) {
	month := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name string
		at   int64 // the page whose build cancels the crawl; 0 cancels first
	}{{"before", 0}, {"midway", 100}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, src, domains := buildFaultyWorld(300, 0.15)
			a := faultyArchive(&cancelAfter{SiteSource: src, n: tc.at, cancel: cancel}, domains, 0.15)
			if tc.at == 0 {
				cancel()
			}
			var m Metrics
			res, err := CrawlMonth(ctx, a, domains, month, &m)
			if res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled crawl returned (result %t, %v), want (no result, context.Canceled)", res != nil, err)
			}
			if m.PagesFetched.Load()+m.PagesMissing.Load()+m.BusyNanos.Load() != 0 {
				t.Fatalf("a cancelled month was counted: %s", &m)
			}
		})
	}
}

func TestCrawlLive(t *testing.T) {
	_, src, domains := buildWorld(150)
	// Make a few domains unreachable.
	delete(src, domains[3])
	delete(src, domains[77])
	res, err := CrawlLive(context.Background(), src, domains, nil)
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
	var m Metrics
	res, err := CrawlLive(ctx, src, domains, &m)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled live crawl returned (%d results, %v), want (nil, context.Canceled)", len(res), err)
	}
	if m.PagesFetched.Load()+m.PagesMissing.Load() != 0 {
		t.Fatalf("a cancelled live crawl was counted: %s", &m)
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
	want, err := CrawlMonth(context.Background(), clean, domains, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var metrics Metrics
	got, err := CrawlMonth(context.Background(), faulty, domains, m, &metrics)
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

// TestRetryBudgetOutlastsFaultModel states the invariant the fault
// equivalence rests on: the attempt budget exceeds the longest run of
// transient failures the archive's default fault model can hand one request,
// at any rate.
func TestRetryBudgetOutlastsFaultModel(t *testing.T) {
	for _, seed := range []int64{0, 7, 42} {
		if n := wayback.DefaultFaultConfig(0.9, seed).MaxFailuresPerRequest(); maxAttempts <= n {
			t.Fatalf("maxAttempts %d does not exceed the fault model's %d consecutive failures", maxAttempts, n)
		}
	}
}

// TestCrawlMonthOutageBudget drives a full-archive outage to either side of
// the attempt budget. One attempt short of it, the crawl still reaches every
// real answer; at it, every request that reaches the archive exhausts its
// budget, and nothing else turns into an error.
func TestCrawlMonthOutageBudget(t *testing.T) {
	clean, src, domains := buildWorld(300)
	month := time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC)
	want, err := CrawlMonth(context.Background(), clean, domains, month, nil)
	if err != nil {
		t.Fatal(err)
	}
	crawl := func(t *testing.T, depth int) (*MonthResult, *Metrics) {
		t.Helper()
		cfg := wayback.DefaultConfig(7)
		cfg.Robots, cfg.Admin, cfg.Undefined = 10, 2, 3
		cfg.Faults = wayback.FaultConfig{OutageRate: 1, OutageDepth: depth, Seed: 7}
		var metrics Metrics
		res, err := CrawlMonth(context.Background(), wayback.New(src, domains, cfg), domains, month, &metrics)
		if err != nil {
			t.Fatal(err)
		}
		return res, &metrics
	}

	t.Run("depth maxAttempts-1", func(t *testing.T) {
		res, m := crawl(t, maxAttempts-1)
		if res.Counts[StatusError] != 0 || m.RetriesExhausted.Load() != 0 {
			t.Fatalf("an outage within the budget leaked into StatusError: %d (%s)", res.Counts[StatusError], m)
		}
		for i := range want.Results {
			if res.Results[i].Status != want.Results[i].Status {
				t.Fatalf("%s: %v through the outage, %v without it", domains[i], res.Results[i].Status, want.Results[i].Status)
			}
		}
	})

	t.Run("depth maxAttempts", func(t *testing.T) {
		res, m := crawl(t, maxAttempts)
		// Every domain the archive does not exclude asks for its
		// availability, the one request it gets to make.
		requests := len(domains) - res.Counts[StatusExcluded]
		if requests == 0 || res.Counts[StatusError] != requests {
			t.Fatalf("%d of %d archived site-months are StatusError, want all", res.Counts[StatusError], requests)
		}
		if got := m.RetriesExhausted.Load(); got != int64(requests) {
			t.Fatalf("RetriesExhausted = %d, want one per request (%d)", got, requests)
		}
		if got, want := m.TransientFailures.Load(), int64(requests*maxAttempts); got != want {
			t.Fatalf("TransientFailures = %d, want %d", got, want)
		}
	})
}

// TestWithRetryObservesCancellation: a transient failure is retried only
// while the crawl is live. A cancelled crawl stops after the attempt in
// flight and reports ctx.Err(), which CrawlMonth returns in place of the
// month.
func TestWithRetryObservesCancellation(t *testing.T) {
	fail := &wayback.TransientError{Kind: wayback.FaultTimeout, Domain: "x.com"}
	for _, tc := range []struct {
		name      string
		cancelled bool
		calls     int
	}{{"live", false, maxAttempts}, {"cancelled", true, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelled {
				cancel()
			}
			var m Metrics
			c := &monthCrawler{m: &m}
			calls := 0
			err := c.withRetry(ctx, "x.com", func(attempt int) error {
				if attempt != calls {
					t.Fatalf("call %d got attempt %d", calls, attempt)
				}
				calls++
				return fail
			})
			if calls != tc.calls {
				t.Fatalf("fn ran %d times, want %d", calls, tc.calls)
			}
			if tc.cancelled != errors.Is(err, context.Canceled) || !tc.cancelled && !errors.Is(err, fail) {
				t.Fatalf("err = %v", err)
			}
			if got := m.Retries.Load(); got != int64(tc.calls-1) {
				t.Fatalf("Retries = %d, want %d", got, tc.calls-1)
			}
		})
	}
}
