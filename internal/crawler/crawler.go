// Package crawler drives the measurement crawls of §4: the parallel
// Wayback Machine crawl of monthly snapshots (Figure 4's pipeline:
// availability query → fetch → HAR/HTML storage → partial-snapshot
// filtering) and the live-web crawl of §4.3. Crawls run across a worker
// pool and survive a faulty archive: a transient failure (rate limiting,
// timeouts, truncated bodies, outages) is retried with the next attempt
// number, up to maxAttempts per request. A cancelled crawl returns
// ctx.Err() and no result; every answer is a function of (seed, domain,
// month, attempt), so recovering from an interrupted crawl means running it
// again, which gives the same bytes.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"time"

	"adwars/internal/fanout"
	"adwars/internal/wayback"
	"adwars/internal/web"
)

// Status classifies one site-month crawl outcome.
type Status int

// Crawl outcomes. StatusPartial corresponds to HAR files discarded by the
// 10%-of-average-size rule; StatusExcluded to domains the archive never
// stores; StatusNotArchived and StatusOutdated to the availability API's
// failure modes. StatusError is reserved for permanent failures and
// exhausted retry budgets — transient archive failures are retried, not
// surfaced here.
const (
	StatusOK Status = iota
	StatusExcluded
	StatusNotArchived
	StatusOutdated
	StatusPartial
	StatusError
)

// String names the status.
func (s Status) String() string {
	switch s {
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

// maxAttempts is the attempt budget of one archive request, first try
// included. It exceeds the archive's worst-case run of consecutive transient
// failures (wayback.FaultConfig.MaxFailuresPerRequest, 6 under
// DefaultFaultConfig), so every transient resolves to the real answer.
const maxAttempts = 8

// CrawlMonth crawls the monthly snapshot of every domain: availability
// query, fetch, then the partial-HAR filter (a snapshot whose HAR is
// smaller than 10% of the month's average HAR size is discarded as
// partial). Results keep the domain order of the input. A cancelled crawl
// returns nil and ctx.Err(). Crawl counters accumulate into m when it is
// non-nil.
func CrawlMonth(ctx context.Context, a *wayback.Archive, domains []string, month time.Time, m *Metrics) (*MonthResult, error) {
	started := time.Now()
	out := &MonthResult{Month: month, Results: make([]SiteResult, len(domains))}
	c := &monthCrawler{a: a, month: month, m: m}
	fanout.ForEach(ctx, Browsers, len(domains), func(i int) {
		out.Results[i] = c.crawlOne(ctx, domains[i])
	})
	// A site cancelled between attempts reads as StatusError, even once
	// every site was handed out, so the whole month goes.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	harBytes := markPartials(out)
	out.recount()
	m.observeMonth(out, harBytes, time.Since(started))
	return out, nil
}

// monthCrawler carries one month's crawl state through the retry path.
type monthCrawler struct {
	a     *wayback.Archive
	month time.Time
	m     *Metrics
}

// transientBody marks crawler-detected transient failures: a response body
// that fails to parse is the client-visible face of a truncated transfer,
// and retrying fetches the full body.
type transientBody struct{ err error }

func (e transientBody) Error() string { return "crawler: truncated response body: " + e.err.Error() }
func (e transientBody) Unwrap() error { return e.err }

// classify splits errors into transient (retriable) and permanent.
func classify(err error) (transient bool, kind wayback.FaultKind) {
	var te *wayback.TransientError
	if errors.As(err, &te) {
		return true, te.Kind
	}
	var tb transientBody
	if errors.As(err, &tb) {
		return true, wayback.FaultTruncated
	}
	return false, 0
}

// crawlOne runs the paper's Figure 4 pipeline for one site-month — the
// upfront exclusion check, an Availability JSON API query, the client-side
// six-month staleness rule, then the snapshot fetch — with each archive
// request retried by withRetry. Unlike the bare pipeline, transient and
// permanent failures are distinguished: transients are retried (and by the
// fault model's consecutive-failure bound always resolve within
// maxAttempts), while permanent failures and exhausted budgets land in
// StatusError with the cause in Err — as does a request cut short by
// cancellation, whose month CrawlMonth then drops.
func (c *monthCrawler) crawlOne(ctx context.Context, domain string) SiteResult {
	if c.a.ExclusionOf(domain) != wayback.ExclNone {
		return SiteResult{Domain: domain, Status: StatusExcluded}
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
		return SiteResult{Domain: domain, Status: StatusError, Err: err}
	}
	if closest == nil {
		// Empty JSON response: the page is not archived.
		return SiteResult{Domain: domain, Status: StatusNotArchived}
	}
	ts, err := closest.Time()
	if err != nil {
		// Well-formed JSON carrying a malformed timestamp is an API
		// anomaly no retry fixes.
		return SiteResult{Domain: domain, Status: StatusError, Err: err}
	}
	if !wayback.WithinSkew(c.month, ts) {
		// The closest snapshot is too far from the requested date.
		return SiteResult{Domain: domain, Status: StatusOutdated}
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
		return SiteResult{Domain: domain, Status: StatusError, Err: err}
	}
	return SiteResult{Domain: domain, Status: StatusOK, Snapshot: snap}
}

// withRetry runs one archive request, fn, with attempt numbers 0, 1, …:
// a transient failure is retried with the next number, until fn succeeds,
// fails permanently or has failed maxAttempts times. The fault model is a
// function of the attempt number, so retrying is all that changes what comes
// back; nothing is waited. Cancellation is checked before each retry.
func (c *monthCrawler) withRetry(ctx context.Context, domain string, fn func(attempt int) error) error {
	m := c.m
	for attempt := 0; ; {
		err := fn(attempt)
		if err == nil {
			return nil
		}
		transient, kind := classify(err)
		if !transient {
			return err
		}
		if m != nil {
			m.TransientFailures.Add(1)
			if kind == wayback.FaultRateLimit {
				m.RateLimited.Add(1)
			}
		}
		attempt++
		if attempt >= maxAttempts {
			if m != nil {
				m.RetriesExhausted.Add(1)
			}
			return fmt.Errorf("crawler: %s: %d attempts exhausted: %w", domain, attempt, err)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if m != nil {
			m.Retries.Add(1)
		}
	}
}

// markPartials applies the paper's partial-snapshot rule: discard HARs
// whose size is below 10% of the average fetched HAR size. It returns the
// total HAR size of the snapshots that stay.
func markPartials(m *MonthResult) int {
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
		return 0
	}
	cutoff := total / n / 10
	for i, r := range m.Results {
		if r.Status == StatusOK && sizes[i] < cutoff {
			m.Results[i].Status = StatusPartial
			m.Results[i].Snapshot = nil
			total -= sizes[i]
		}
	}
	return total
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
}

// CrawlLive visits every domain on the live web (§4.3). Unreachable sites
// yield a nil Page; the caller counts reachable ones (experiments' target
// L1 holds the paper's). A cancelled crawl returns nil and ctx.Err(). Crawl
// counters accumulate into m when it is non-nil.
func CrawlLive(ctx context.Context, src LiveSource, domains []string, m *Metrics) ([]LiveResult, error) {
	out := make([]LiveResult, len(domains))
	err := fanout.ForEach(ctx, Browsers, len(domains), func(i int) {
		out[i].Domain = domains[i]
		if p, ok := src.LivePage(domains[i]); ok {
			out[i].Page = p
		}
	})
	if err != nil {
		return nil, err
	}
	m.observeLive(out)
	return out, nil
}
