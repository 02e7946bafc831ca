// Package crawler drives the measurement crawls of §4: the parallel
// Wayback Machine crawl of monthly snapshots (Figure 4's pipeline:
// availability query → fetch → HAR/HTML storage → partial-snapshot
// filtering) and the live-web crawl of §4.3. Crawls run across a worker
// pool, honor context cancellation (returning the completed portion of the
// month, not discarding it), and survive a faulty archive: transient
// failures (rate limiting, timeouts, truncated bodies, outages) are
// retried with exponential backoff and jitter behind a shared circuit
// breaker, and a JSONL journal checkpoints completed site-months so an
// interrupted crawl resumes without refetching.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"adwars/internal/fanout"
	"adwars/internal/wayback"
	"adwars/internal/web"
)

// Status classifies one site-month crawl outcome.
type Status int

// Crawl outcomes. StatusPending marks sites a cancelled crawl never
// finished (it appears only in partial results). StatusPartial corresponds
// to HAR files discarded by the 10%-of-average-size rule; StatusExcluded
// to domains the archive never stores; StatusNotArchived and
// StatusOutdated to the availability API's failure modes. StatusError is
// reserved for permanent failures and exhausted retry budgets — transient
// archive failures are retried, not surfaced here.
const (
	StatusPending Status = iota
	StatusOK
	StatusExcluded
	StatusNotArchived
	StatusOutdated
	StatusPartial
	StatusError
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusOK:
		return "ok"
	case StatusExcluded:
		return "excluded"
	case StatusNotArchived:
		return "not-archived"
	case StatusOutdated:
		return "outdated"
	case StatusPartial:
		return "partial"
	default:
		return "error"
	}
}

// SiteResult is one domain's crawl outcome for one month.
type SiteResult struct {
	Domain   string
	Status   Status
	Snapshot *wayback.Snapshot // non-nil only when Status is StatusOK
	// Err records why a StatusError outcome failed permanently (or which
	// transient failure exhausted the retry budget).
	Err error
}

// MonthResult aggregates one month's crawl.
type MonthResult struct {
	Month   time.Time
	Results []SiteResult
	Counts  map[Status]int
}

// recount rebuilds the status histogram.
func (m *MonthResult) recount() {
	m.Counts = make(map[Status]int)
	for _, r := range m.Results {
		m.Counts[r.Status]++
	}
}

// Browsers is the crawl's width: the paper crawls with 10 independent
// browser instances, so CrawlMonth and CrawlLive visit that many domains at
// once, and the per-site work after a crawl (the replay's input preparation
// and matching) fans out as wide. No caller sets it: the results are merged
// in domain order, so the figures do not depend on it.
const Browsers = 10

// Config controls crawl resilience.
type Config struct {
	// Metrics, when non-nil, accumulates crawl counters across calls.
	Metrics *Metrics
	// Retry controls per-request retry/backoff of transient archive
	// failures. A zero MaxAttempts means 8.
	Retry RetryPolicy
	// Breaker, when non-nil, is the shared circuit breaker / adaptive
	// rate limiter (share one across the 60 monthly crawls); nil creates
	// a fresh one per crawl.
	Breaker *Breaker
	// Journal, when non-nil, checkpoints completed site-months and
	// restores previously journaled ones instead of refetching.
	Journal *Journal
	// Seed drives the deterministic backoff jitter.
	Seed int64
}

// withDefaults normalizes a config for one crawl.
func (cfg Config) withDefaults() Config {
	cfg.Retry = cfg.Retry.withDefaults()
	if cfg.Breaker == nil {
		cfg.Breaker = NewBreaker(cfg.Metrics)
	}
	return cfg
}

// CrawlMonth crawls the monthly snapshot of every domain: availability
// query, fetch, then the partial-HAR filter (a snapshot whose HAR is
// smaller than 10% of the month's average HAR size is discarded as
// partial). Results keep the domain order of the input.
//
// On context cancellation the completed portion of the month is returned
// alongside ctx.Err(): unfinished sites carry StatusPending, and — when a
// Journal is configured — completed ones are already checkpointed, so a
// resumed crawl picks up where this one stopped. The partial-snapshot rule
// is only applied to complete months (its cutoff needs the whole month).
func CrawlMonth(ctx context.Context, a *wayback.Archive, domains []string, month time.Time, cfg Config) (*MonthResult, error) {
	cfg = cfg.withDefaults()
	started := time.Now()
	out := &MonthResult{Month: month, Results: make([]SiteResult, len(domains))}
	for i, d := range domains {
		out.Results[i] = SiteResult{Domain: d, Status: StatusPending}
	}
	var done map[string]SiteResult
	if cfg.Journal != nil {
		done = cfg.Journal.Completed(month)
	}
	c := &monthCrawler{a: a, month: month, cfg: cfg}

	var journalErr error
	var journalOnce sync.Once
	err := fanout.ForEach(ctx, Browsers, len(domains), func(i int) {
		if r, ok := done[domains[i]]; ok {
			out.Results[i] = r
			if cfg.Metrics != nil {
				cfg.Metrics.Resumed.Add(1)
			}
			return
		}
		r, err := c.crawlOne(ctx, domains[i])
		if err != nil {
			return // cancelled mid-site: leave it pending
		}
		out.Results[i] = r
		if cfg.Journal != nil {
			if jerr := cfg.Journal.Record(month, r); jerr != nil {
				journalOnce.Do(func() { journalErr = jerr })
			}
		}
	})
	if err != nil {
		// Cancelled: hand back the completed portion instead of
		// discarding it. The month is incomplete, so the partial-HAR rule
		// cannot run yet.
		out.recount()
		return out, err
	}
	if journalErr != nil {
		return nil, journalErr
	}

	markPartials(out)
	out.recount()
	cfg.Metrics.observeMonth(out, time.Since(started))
	return out, nil
}

// monthCrawler carries one month's crawl state through the retry path.
type monthCrawler struct {
	a     *wayback.Archive
	month time.Time
	cfg   Config
}

// transientBody marks crawler-detected transient failures: a response body
// that fails to parse is the client-visible face of a truncated transfer,
// and retrying fetches the full body.
type transientBody struct{ err error }

func (e transientBody) Error() string { return "crawler: truncated response body: " + e.err.Error() }
func (e transientBody) Unwrap() error { return e.err }

// classify splits errors into transient (retriable) and permanent.
func classify(err error) (transient bool, kind wayback.FaultKind, retryAfter time.Duration) {
	var te *wayback.TransientError
	if errors.As(err, &te) {
		return true, te.Kind, te.RetryAfter
	}
	var tb transientBody
	if errors.As(err, &tb) {
		return true, wayback.FaultTruncated, 0
	}
	return false, 0, 0
}

// crawlOne runs the paper's Figure 4 pipeline for one site-month — the
// upfront exclusion check, an Availability JSON API query, the client-side
// six-month staleness rule, then the snapshot fetch — with each archive
// request retried through the breaker-gated backoff path. Unlike the bare
// pipeline, transient and permanent failures are distinguished: transients
// are retried (and by the fault model's consecutive-failure bound always
// resolve within the default budget), while permanent failures and
// exhausted budgets land in StatusError with the cause in Err. The
// returned error is non-nil only for context cancellation.
func (c *monthCrawler) crawlOne(ctx context.Context, domain string) (SiteResult, error) {
	if c.a.ExclusionOf(domain) != wayback.ExclNone {
		return SiteResult{Domain: domain, Status: StatusExcluded}, nil
	}
	var closest *wayback.ClosestSnapshot
	err := c.withRetry(ctx, domain, func(attempt int) error {
		body, err := c.a.QueryAvailabilityAttempt(domain, c.month, attempt)
		if err != nil {
			return err
		}
		cs, err := wayback.ParseAvailability(body)
		if err != nil {
			return transientBody{err}
		}
		closest = cs
		return nil
	})
	if err != nil {
		return c.failed(ctx, domain, err)
	}
	if closest == nil {
		// Empty JSON response: the page is not archived.
		return SiteResult{Domain: domain, Status: StatusNotArchived}, nil
	}
	ts, err := closest.Time()
	if err != nil {
		// Well-formed JSON carrying a malformed timestamp is an API
		// anomaly no retry fixes.
		return SiteResult{Domain: domain, Status: StatusError, Err: err}, nil
	}
	if !wayback.WithinSkew(c.month, ts) {
		// The closest snapshot is too far from the requested date.
		return SiteResult{Domain: domain, Status: StatusOutdated}, nil
	}
	var snap *wayback.Snapshot
	err = c.withRetry(ctx, domain, func(attempt int) error {
		s, err := c.a.FetchAttempt(c.a.RefFor(domain, ts), attempt)
		if err != nil {
			return err
		}
		snap = s
		return nil
	})
	if err != nil {
		return c.failed(ctx, domain, err)
	}
	return SiteResult{Domain: domain, Status: StatusOK, Snapshot: snap}, nil
}

// failed folds a withRetry error into a result, propagating only context
// cancellation as an error.
func (c *monthCrawler) failed(ctx context.Context, domain string, err error) (SiteResult, error) {
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		return SiteResult{Domain: domain, Status: StatusPending}, err
	}
	return SiteResult{Domain: domain, Status: StatusError, Err: err}, nil
}

// withRetry runs one archive request through the resilience stack: the
// circuit breaker gate (shed requests wait without consuming the attempt
// budget), the adaptive rate-limit penalty, then fn itself; transient
// failures back off exponentially with deterministic jitter (honoring any
// Retry-After hint) up to the attempt budget.
func (c *monthCrawler) withRetry(ctx context.Context, domain string, fn func(attempt int) error) error {
	br := c.cfg.Breaker
	m := c.cfg.Metrics
	for attempt := 0; ; {
		if !br.Allow() {
			// Load shedding: the archive is down. Wait out the open
			// window; the site's own budget is untouched.
			if err := c.pause(ctx, baseDelay); err != nil {
				return err
			}
			continue
		}
		if p := br.Penalty(); p > 0 {
			if err := c.pause(ctx, p); err != nil {
				return err
			}
		}
		err := fn(attempt)
		if err == nil {
			br.Success()
			return nil
		}
		transient, kind, retryAfter := classify(err)
		if !transient {
			// The archive answered; the failure is application-level,
			// so the breaker sees a healthy service.
			br.Success()
			return err
		}
		if m != nil {
			m.TransientFailures.Add(1)
		}
		br.Failure()
		if kind == wayback.FaultRateLimit {
			if m != nil {
				m.RateLimited.Add(1)
			}
			br.OnRateLimit(retryAfter)
		}
		attempt++
		if attempt >= c.cfg.Retry.MaxAttempts {
			if m != nil {
				m.RetriesExhausted.Add(1)
			}
			return fmt.Errorf("crawler: %s: %d attempts exhausted: %w", domain, attempt, err)
		}
		if m != nil {
			m.Retries.Add(1)
		}
		d := c.cfg.Retry.Delay(domain, attempt, c.cfg.Seed)
		if retryAfter > d {
			d = retryAfter
		}
		if err := c.pause(ctx, d); err != nil {
			return err
		}
	}
}

// pause accounts the backoff time without waiting it out: against the
// in-memory archive backoff exists to be measured (Metrics.BackoffNanos),
// not to pace a real service, so a crawl stays fast while it runs the exact
// retry schedule. It returns ctx.Err(), so a cancelled crawl stops here.
func (c *monthCrawler) pause(ctx context.Context, d time.Duration) error {
	if m := c.cfg.Metrics; m != nil {
		m.BackoffNanos.Add(int64(d))
	}
	return ctx.Err()
}

// markPartials applies the paper's partial-snapshot rule: discard HARs
// whose size is below 10% of the average fetched HAR size.
func markPartials(m *MonthResult) {
	total, n := 0, 0
	sizes := make([]int, len(m.Results))
	for i, r := range m.Results {
		if r.Status == StatusOK {
			sizes[i] = r.Snapshot.HAR.Size()
			total += sizes[i]
			n++
		}
	}
	if n == 0 {
		return
	}
	cutoff := total / n / 10
	for i, r := range m.Results {
		if r.Status == StatusOK && sizes[i] < cutoff {
			m.Results[i].Status = StatusPartial
			m.Results[i].Snapshot = nil
		}
	}
}

// LiveSource produces current pages for the live-web crawl; ok=false for
// unreachable sites.
type LiveSource interface {
	LivePage(domain string) (*web.Page, bool)
}

// LiveResult is one domain's live crawl outcome.
type LiveResult struct {
	Domain string
	Page   *web.Page // nil when unreachable
	// Crawled distinguishes visited-but-unreachable sites from sites a
	// cancelled crawl never reached.
	Crawled bool
}

// CrawlLive visits every domain on the live web (§4.3). Unreachable sites
// yield a nil Page; the caller counts reachable ones (experiments' target
// L1 holds the paper's). On cancellation the completed portion is returned
// alongside ctx.Err(), with unvisited sites carrying Crawled=false.
func CrawlLive(ctx context.Context, src LiveSource, domains []string, cfg Config) ([]LiveResult, error) {
	out := make([]LiveResult, len(domains))
	for i, d := range domains {
		out[i] = LiveResult{Domain: d}
	}
	err := fanout.ForEach(ctx, Browsers, len(domains), func(i int) {
		p, ok := src.LivePage(domains[i])
		if ok {
			out[i] = LiveResult{Domain: domains[i], Page: p, Crawled: true}
		} else {
			out[i] = LiveResult{Domain: domains[i], Crawled: true}
		}
	})
	cfg.Metrics.observeLive(out)
	return out, err
}
