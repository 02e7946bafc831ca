package wayback

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"adwars/internal/stats"
)

// This file models the Wayback Availability JSON API the paper's crawler
// queries (§4.1): a request for (url, timestamp) returns the closest
// archived snapshot, or an empty archived_snapshots object when the page
// is not archived (e.g. for HTTP 3XX redirects). The crawler applies the
// six-month staleness rule client-side, exactly as the paper describes.

// AvailabilityResponse is the JSON document the availability API returns.
type AvailabilityResponse struct {
	URL               string `json:"url"`
	ArchivedSnapshots struct {
		Closest *ClosestSnapshot `json:"closest,omitempty"`
	} `json:"archived_snapshots"`
}

// ClosestSnapshot describes the snapshot nearest the requested timestamp.
type ClosestSnapshot struct {
	Status    string `json:"status"`
	Available bool   `json:"available"`
	URL       string `json:"url"`
	Timestamp string `json:"timestamp"` // YYYYMMDDhhmmss
}

// Time parses the snapshot's 14-digit timestamp.
func (c *ClosestSnapshot) Time() (time.Time, error) {
	t, err := time.Parse("20060102150405", c.Timestamp)
	if err != nil {
		return time.Time{}, fmt.Errorf("wayback: bad snapshot timestamp %q: %w", c.Timestamp, err)
	}
	return t, nil
}

// QueryAvailability serves an availability API request for a domain's
// homepage near the wanted date (attempt 0 of QueryAvailabilityAttempt).
func (a *Archive) QueryAvailability(domain string, want time.Time) ([]byte, error) {
	return a.QueryAvailabilityAttempt(domain, want, 0)
}

// QueryAvailabilityAttempt serves an availability API request, exposing the
// zero-based retry index to the fault injector. Rate-limit, timeout, and
// outage faults surface as *TransientError; truncated-body faults instead
// return a corrupt JSON prefix with a nil error, exactly what a client
// reading a cut-short HTTP body sees — the caller discovers the fault when
// ParseAvailability fails, and should retry.
//
// Not-archived pages (and permanently excluded domains) produce the empty
// response; "outdated" archive states produce a closest snapshot months
// away from the request, which the client-side staleness rule discards.
func (a *Archive) QueryAvailabilityAttempt(domain string, want time.Time, attempt int) ([]byte, error) {
	if ferr := a.faults.Check("avail", domain, monthKey(want), attempt); ferr != nil {
		var te *TransientError
		if errors.As(ferr, &te) && te.Kind == FaultTruncated {
			body, err := a.queryAvailability(domain, want)
			if err != nil {
				return nil, err
			}
			// A JSON object cut short of its closing brace never parses.
			return body[:len(body)*2/3], nil
		}
		return nil, ferr
	}
	return a.queryAvailability(domain, want)
}

func (a *Archive) queryAvailability(domain string, want time.Time) ([]byte, error) {
	resp := AvailabilityResponse{URL: "http://" + domain + "/"}
	ref, avail := a.Available(domain, want)
	switch avail {
	case Excluded, NotArchived:
		// Empty archived_snapshots, like the real API.
	case Outdated:
		// The nearest snapshot is far from the requested date. Shift
		// deterministically 7–14 months into the past (or future for
		// early months).
		months := 7 + int(stats.Hash64("outdist", domain, monthKey(want), a.cfg.Seed)%8)
		ts := want.AddDate(0, -months, 0)
		if ts.Before(a.cfg.Start) {
			ts = want.AddDate(0, months, 0)
		}
		resp.ArchivedSnapshots.Closest = a.closestFor(domain, ts)
	case Archived:
		resp.ArchivedSnapshots.Closest = a.closestFor(domain, ref.Timestamp)
	}
	return json.Marshal(resp)
}

func (a *Archive) closestFor(domain string, ts time.Time) *ClosestSnapshot {
	return &ClosestSnapshot{
		Status:    "200",
		Available: true,
		URL:       RewriteURL(ts, "http://"+domain+"/"),
		Timestamp: ts.Format("20060102150405"),
	}
}

// ParseAvailability decodes an availability response. The returned
// snapshot is nil when the page is not archived.
func ParseAvailability(data []byte) (*ClosestSnapshot, error) {
	var resp AvailabilityResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("wayback: bad availability response: %w", err)
	}
	return resp.ArchivedSnapshots.Closest, nil
}

// MaxSkewMonths is the client-side staleness rule: the paper discards
// snapshots more than six months from the requested date.
const MaxSkewMonths = 6

// WithinSkew reports whether a snapshot time is close enough to the
// requested date to use. The bound is six calendar months either side
// (AddDate semantics), not the fixed-duration 6×31-day approximation a
// naive implementation would use — the two disagree for snapshots landing
// 181–186 days out.
func WithinSkew(requested, snapshot time.Time) bool {
	return !snapshot.Before(requested.AddDate(0, -MaxSkewMonths, 0)) &&
		!snapshot.After(requested.AddDate(0, MaxSkewMonths, 0))
}

// RefFor reconstructs the snapshot reference for a domain and snapshot
// time obtained from the availability API, recomputing the partial flag
// the fetch path needs.
func (a *Archive) RefFor(domain string, ts time.Time) SnapshotRef {
	frac := a.monthFrac(ts)
	u := stats.HashFloat("defect", domain, monthKey(ts), a.cfg.Seed)
	r := a.cfg.Rates
	pNA := stats.Lerp(r.NotArchivedStart, r.NotArchivedEnd, frac)
	pOut := stats.Lerp(r.OutdatedStart, r.OutdatedEnd, frac)
	pPart := stats.Lerp(r.PartialStart, r.PartialEnd, frac)
	return SnapshotRef{
		Domain:    domain,
		Timestamp: ts,
		Partial:   u >= pNA+pOut && u < pNA+pOut+pPart,
	}
}
