package wayback

import (
	"fmt"

	"adwars/internal/stats"
)

// This file injects the transient failures a real Wayback Machine crawl
// absorbs over a 60-month measurement: rate limiting (HTTP 429), request
// timeouts, truncated response bodies, and brief full-archive outages.
// Faults are deterministic in the seed and keyed by
// (operation, domain, month, attempt), so a retrying crawler sees exactly
// the same fault schedule on every run — and, crucially, every fault is
// transient *by construction*: consecutive failures for one request are
// bounded, so a sufficient retry budget always reaches the real response.
// That bound is what makes the headline equivalence claim (identical
// Figure 5/6 output with and without faults) provable rather than merely
// probable.

// FaultKind classifies one injected transient failure.
type FaultKind int

// Fault kinds, each standing in for a real archive failure mode (see
// DESIGN.md's fault-model table).
const (
	// FaultRateLimit models HTTP 429 responses.
	FaultRateLimit FaultKind = iota
	// FaultTimeout models request timeouts against an overloaded archive.
	FaultTimeout
	// FaultTruncated models response bodies cut short mid-transfer
	// (corrupt availability JSON, truncated HAR payloads).
	FaultTruncated
	// FaultOutage models brief full-archive outages affecting every
	// request.
	FaultOutage
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultRateLimit:
		return "rate-limit"
	case FaultTimeout:
		return "timeout"
	case FaultTruncated:
		return "truncated"
	case FaultOutage:
		return "outage"
	default:
		return "unknown"
	}
}

// TransientError is a retriable archive failure. Permanent failures (a
// snapshot that genuinely has no source content) are plain errors; the
// crawler distinguishes the two with errors.As.
type TransientError struct {
	Kind   FaultKind
	Domain string
}

// Error renders the failure.
func (e *TransientError) Error() string {
	return fmt.Sprintf("wayback: transient %s for %s", e.Kind, e.Domain)
}

// FaultConfig parameterizes fault injection. The zero value disables it.
type FaultConfig struct {
	// Rate is the per-attempt transient failure probability (the paper's
	// crawl saw on the order of a few percent; 0.10 is a hostile archive).
	Rate float64
	// MaxConsecutive bounds how many times in a row one request may fault
	// (default 4). Together with OutageDepth it fixes the retry budget a
	// crawler needs: MaxConsecutive + OutageDepth + 1 attempts always
	// succeed.
	MaxConsecutive int
	// OutageRate is the fraction of months hit by a brief archive-wide
	// outage.
	OutageRate float64
	// OutageDepth is how many attempts of every request fail during an
	// outage month before the archive recovers (default 2).
	OutageDepth int
	// Seed drives the fault schedule; 0 inherits the archive's seed.
	Seed int64
}

// DefaultFaultConfig returns a fault model with the given per-attempt
// transient rate plus occasional archive-wide outages; the knobs it leaves
// unset take withDefaults' values.
func DefaultFaultConfig(rate float64, seed int64) FaultConfig {
	return FaultConfig{Rate: rate, OutageRate: 0.05, Seed: seed}.withDefaults()
}

// enabled reports whether any fault class is active.
func (c FaultConfig) enabled() bool { return c.Rate > 0 || c.OutageRate > 0 }

// withDefaults fills unset knobs.
func (c FaultConfig) withDefaults() FaultConfig {
	if c.MaxConsecutive <= 0 {
		c.MaxConsecutive = 4
	}
	if c.OutageDepth <= 0 {
		c.OutageDepth = 2
	}
	return c
}

// MaxFailuresPerRequest is the worst-case number of consecutive transient
// failures one request can see (outage recovery plus per-request faults);
// a retry budget above this always reaches the real response.
func (c FaultConfig) MaxFailuresPerRequest() int {
	c = c.withDefaults()
	n := 0
	if c.Rate > 0 {
		n += c.MaxConsecutive
	}
	if c.OutageRate > 0 {
		n += c.OutageDepth
	}
	return n
}

// FaultInjector decides, deterministically, which request attempts fail and
// how. Safe for concurrent use.
type FaultInjector struct {
	cfg FaultConfig
}

// NewFaultInjector builds an injector; nil is returned for a disabled
// config so a nil receiver can be used as "no faults".
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	if !cfg.enabled() {
		return nil
	}
	return &FaultInjector{cfg: cfg.withDefaults()}
}

// Check returns the transient error attempt `attempt` (zero-based) of the
// given request should fail with, or nil when the attempt goes through.
// A nil injector never faults.
func (f *FaultInjector) Check(op, domain string, epoch int64, attempt int) error {
	if f == nil {
		return nil
	}
	if f.outageMonth(epoch) {
		if attempt < f.cfg.OutageDepth {
			return &TransientError{Kind: FaultOutage, Domain: domain}
		}
		// The outage consumed the first OutageDepth attempts; the
		// per-request fault schedule indexes the attempts after recovery.
		attempt -= f.cfg.OutageDepth
	}
	if attempt >= f.failures(op, domain, epoch) {
		return nil
	}
	return &TransientError{Kind: f.kindFor(op, domain, epoch), Domain: domain}
}

// outageMonth reports whether the archive is briefly down in this month.
func (f *FaultInjector) outageMonth(epoch int64) bool {
	if f.cfg.OutageRate <= 0 {
		return false
	}
	return stats.HashFloat("outage", "", epoch, f.cfg.Seed) < f.cfg.OutageRate
}

// failures returns how many consecutive attempts of one request fault: a
// geometric draw (each attempt independently fails with probability Rate)
// truncated at MaxConsecutive, so the marginal per-attempt failure rate is
// Rate while success within the bound is guaranteed.
func (f *FaultInjector) failures(op, domain string, epoch int64) int {
	if f.cfg.Rate <= 0 {
		return 0
	}
	n := 0
	for n < f.cfg.MaxConsecutive &&
		stats.HashFloat(fmt.Sprintf("fault|%s|%d", op, n), domain, epoch, f.cfg.Seed) < f.cfg.Rate {
		n++
	}
	return n
}

// kindFor picks which failure mode a faulting request exhibits.
func (f *FaultInjector) kindFor(op, domain string, epoch int64) FaultKind {
	switch stats.Hash64("faultkind|"+op, domain, epoch, f.cfg.Seed) % 3 {
	case 0:
		return FaultRateLimit
	case 1:
		return FaultTimeout
	default:
		return FaultTruncated
	}
}
