package crawler

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Metrics counts crawl activity across workers. All fields are updated
// atomically; a single Metrics value can be shared by concurrent crawls
// (e.g. the 60 monthly crawls of the retrospective study).
type Metrics struct {
	// PagesFetched counts successfully fetched snapshots / live pages.
	PagesFetched atomic.Int64
	// PagesMissing counts excluded/not-archived/outdated outcomes.
	PagesMissing atomic.Int64
	// PartialSnapshots counts snapshots discarded by the size rule.
	PartialSnapshots atomic.Int64
	// Errors counts permanent fetch failures (including exhausted retry
	// budgets).
	Errors atomic.Int64
	// HARBytes accumulates serialized HAR sizes of fetched snapshots.
	HARBytes atomic.Int64
	// BusyNanos accumulates the wall time of each completed CrawlMonth
	// call, from its start to its return; concurrent months overlap in it,
	// and the live crawl adds nothing.
	BusyNanos atomic.Int64

	// TransientFailures counts transient archive failures observed
	// (rate limiting, timeouts, truncated bodies, outages).
	TransientFailures atomic.Int64
	// Retries counts re-attempts after transient failures.
	Retries atomic.Int64
	// RateLimited counts 429-style responses among the transients.
	RateLimited atomic.Int64
	// RetriesExhausted counts requests whose attempt budget ran out —
	// the only way a transient failure becomes a StatusError.
	RetriesExhausted atomic.Int64
}

// observeMonth folds one month's results into the metrics; harBytes is the
// total HAR size of its fetched snapshots, as markPartials summed it.
func (m *Metrics) observeMonth(res *MonthResult, harBytes int, took time.Duration) {
	if m == nil {
		return
	}
	m.HARBytes.Add(int64(harBytes))
	for _, r := range res.Results {
		switch r.Status {
		case StatusOK:
			m.PagesFetched.Add(1)
		case StatusPartial:
			m.PartialSnapshots.Add(1)
		case StatusError:
			m.Errors.Add(1)
		default:
			m.PagesMissing.Add(1)
		}
	}
	m.BusyNanos.Add(int64(took))
}

// observeLive folds live crawl results into the metrics.
func (m *Metrics) observeLive(res []LiveResult) {
	if m == nil {
		return
	}
	for _, r := range res {
		if r.Page != nil {
			m.PagesFetched.Add(1)
		} else {
			m.PagesMissing.Add(1)
		}
	}
}

// String renders the counters for progress logs.
func (m *Metrics) String() string {
	out := fmt.Sprintf("fetched=%d missing=%d partial=%d errors=%d har=%dKiB busy=%s",
		m.PagesFetched.Load(), m.PagesMissing.Load(), m.PartialSnapshots.Load(), m.Errors.Load(),
		m.HARBytes.Load()/1024, time.Duration(m.BusyNanos.Load()).Round(time.Millisecond))
	transient, retries := m.TransientFailures.Load(), m.Retries.Load()
	if transient > 0 || retries > 0 {
		out += fmt.Sprintf(" transient=%d retries=%d ratelimited=%d exhausted=%d",
			transient, retries, m.RateLimited.Load(), m.RetriesExhausted.Load())
	}
	return out
}
