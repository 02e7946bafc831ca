// Package wayback simulates the Internet Archive's Wayback Machine: the
// Availability JSON API semantics (closest-snapshot lookup, empty responses
// for unarchived pages), per-domain exclusions (robots.txt, administrator
// request, undefined reasons), archival defects (outdated, missing, and
// partial snapshots — Figure 5), and archive URL rewriting including
// escape URLs. See DESIGN.md's substitution table: the measurement pipeline
// exercises the same code paths it would against the real archive.
package wayback

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"adwars/internal/abp"
	"adwars/internal/har"
	"adwars/internal/stats"
	"adwars/internal/web"
)

// SiteSource produces the live page of a domain at a point in time; the
// world simulator implements it.
type SiteSource interface {
	// PageAt returns the domain's homepage as it stood at time t, or
	// ok=false when the site is unreachable.
	PageAt(domain string, t time.Time) (page *web.Page, ok bool)
}

// Exclusion is why a domain is permanently unarchived.
type Exclusion int

// Exclusion reasons, with the paper's top-5K counts in comments.
const (
	ExclNone      Exclusion = iota
	ExclRobots              // robots.txt policy (153 domains)
	ExclAdmin               // administrator request (26 domains)
	ExclUndefined           // undefined reasons (54 domains)
)

// String names the exclusion reason.
func (e Exclusion) String() string {
	switch e {
	case ExclRobots:
		return "robots.txt"
	case ExclAdmin:
		return "admin-request"
	case ExclUndefined:
		return "undefined"
	default:
		return "none"
	}
}

// Availability is the outcome of an availability query.
type Availability int

// Availability outcomes. NotArchived covers the empty-JSON responses the
// paper traces to HTTP 3XX redirects; Outdated means the closest snapshot
// is more than six months from the requested date.
const (
	Archived Availability = iota
	NotArchived
	Outdated
	Excluded
)

// String names the availability outcome.
func (a Availability) String() string {
	switch a {
	case Archived:
		return "archived"
	case NotArchived:
		return "not-archived"
	case Outdated:
		return "outdated"
	default:
		return "excluded"
	}
}

// DefectRates are the linear-in-time monthly defect probabilities, endpoint
// calibrated to Figure 5 (fractions of the ~4767 crawlable top-5K domains).
type DefectRates struct {
	NotArchivedStart, NotArchivedEnd float64
	OutdatedStart, OutdatedEnd       float64
	PartialStart, PartialEnd         float64
}

// DefaultDefectRates calibrates to Figure 5: outdated 1239→532,
// not archived 262→374, partial 23→78, over 4767 domains.
func DefaultDefectRates() DefectRates {
	const n = 4767.0
	return DefectRates{
		NotArchivedStart: 262 / n, NotArchivedEnd: 374 / n,
		OutdatedStart: 1239 / n, OutdatedEnd: 532 / n,
		PartialStart: 23 / n, PartialEnd: 78 / n,
	}
}

// Config parameterizes an Archive.
type Config struct {
	// Start and End bound the archival window (month granularity).
	Start, End time.Time
	// Robots, Admin, Undefined are how many domains each exclusion class
	// gets (the paper: 153, 26, 54).
	Robots, Admin, Undefined int
	// Rates are the monthly defect probabilities.
	Rates DefectRates
	// EscapeURLFraction is the fraction of resource URLs archived as
	// Wayback escape URLs (stored without the archive prefix).
	EscapeURLFraction float64
	// Faults configures transient failure injection (rate limiting,
	// timeouts, truncated bodies, outages). The zero value disables it.
	Faults FaultConfig
	// Seed drives every deterministic choice.
	Seed int64
}

// DefaultConfig covers the paper's window, Aug 2011 – Jul 2016.
func DefaultConfig(seed int64) Config {
	return Config{
		Start:  time.Date(2011, 8, 1, 0, 0, 0, 0, time.UTC),
		End:    time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC),
		Robots: 153, Admin: 26, Undefined: 54,
		Rates:             DefaultDefectRates(),
		EscapeURLFraction: 0.03,
		Seed:              seed,
	}
}

// Archive simulates the Wayback Machine over a fixed domain population.
type Archive struct {
	cfg        Config
	src        SiteSource
	exclusions map[string]Exclusion
	faults     *FaultInjector // nil when fault injection is disabled
}

// New builds an archive over the given domains. Exclusions are assigned
// deterministically from the seed.
func New(src SiteSource, domains []string, cfg Config) *Archive {
	a := &Archive{cfg: cfg, src: src, exclusions: make(map[string]Exclusion)}
	if cfg.Faults.enabled() {
		fc := cfg.Faults
		if fc.Seed == 0 {
			fc.Seed = cfg.Seed
		}
		a.faults = NewFaultInjector(fc)
	}
	// Assign exclusions by hash rank: the domains with the smallest
	// exclusion-hash get excluded, split across the three reasons.
	type ranked struct {
		d string
		h uint64
	}
	rs := make([]ranked, 0, len(domains))
	for _, d := range domains {
		rs = append(rs, ranked{d, stats.Hash64("excl", d, 0, cfg.Seed)})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].h < rs[j].h })
	k := cfg.Robots + cfg.Admin + cfg.Undefined
	if k > len(rs) {
		k = len(rs)
	}
	for i := 0; i < k; i++ {
		switch {
		case i < cfg.Robots:
			a.exclusions[rs[i].d] = ExclRobots
		case i < cfg.Robots+cfg.Admin:
			a.exclusions[rs[i].d] = ExclAdmin
		default:
			a.exclusions[rs[i].d] = ExclUndefined
		}
	}
	return a
}

// ExclusionOf returns why a domain is permanently unarchived (ExclNone when
// it is archived normally).
func (a *Archive) ExclusionOf(domain string) Exclusion {
	return a.exclusions[domain]
}

// SnapshotRef identifies one archived snapshot.
type SnapshotRef struct {
	// Domain is the archived site.
	Domain string
	// Timestamp is the snapshot capture time.
	Timestamp time.Time
	// Partial marks snapshots cut short by anti-bot error pages.
	Partial bool
}

// monthFrac positions t within [Start, End] as 0..1.
func (a *Archive) monthFrac(t time.Time) float64 {
	total := a.cfg.End.Sub(a.cfg.Start)
	if total <= 0 {
		return 0
	}
	f := float64(t.Sub(a.cfg.Start)) / float64(total)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Available implements the Wayback Availability JSON API for the monthly
// snapshot closest to the requested date. It returns the snapshot reference
// and Archived, or the reason no usable snapshot exists.
func (a *Archive) Available(domain string, want time.Time) (SnapshotRef, Availability) {
	if a.exclusions[domain] != ExclNone {
		return SnapshotRef{}, Excluded
	}
	frac := a.monthFrac(want)
	u := stats.HashFloat("defect", domain, monthKey(want), a.cfg.Seed)
	r := a.cfg.Rates
	pNA := stats.Lerp(r.NotArchivedStart, r.NotArchivedEnd, frac)
	pOut := stats.Lerp(r.OutdatedStart, r.OutdatedEnd, frac)
	pPart := stats.Lerp(r.PartialStart, r.PartialEnd, frac)
	switch {
	case u < pNA:
		// Empty JSON response (e.g. the domain 3XX-redirects).
		return SnapshotRef{}, NotArchived
	case u < pNA+pOut:
		// Closest snapshot is > 6 months away; the crawler discards it.
		return SnapshotRef{}, Outdated
	}
	// Capture day varies deterministically within the month.
	day := 1 + int(stats.Hash64("day", domain, monthKey(want), a.cfg.Seed)%28)
	ts := time.Date(want.Year(), want.Month(), day, 0, 0, 0, 0, time.UTC)
	return SnapshotRef{
		Domain:    domain,
		Timestamp: ts,
		Partial:   u < pNA+pOut+pPart,
	}, Archived
}

// Snapshot is the fetched archive content for one site-month: the page
// HTML as archived and the HAR log of the crawl, with archive-rewritten
// URLs.
type Snapshot struct {
	Ref  SnapshotRef
	HTML string
	HAR  *har.Log
	// Page is the structured page (available because the simulator owns
	// the source; the measurement code uses only HTML and HAR, mirroring
	// the paper, but §5's corpus construction reads script bodies).
	Page *web.Page
}

// Fetch retrieves an archived snapshot (attempt 0 of FetchAttempt).
// Partial snapshots (anti-bot error pages) come back with a truncated HAR
// whose size falls under the 10% cutoff the crawler applies.
func (a *Archive) Fetch(ref SnapshotRef) (*Snapshot, error) {
	return a.FetchAttempt(ref, 0)
}

// FetchAttempt retrieves an archived snapshot, exposing the zero-based
// retry index to the fault injector. Injected failures — including HAR
// bodies truncated mid-transfer, which the client detects as unparseable —
// surface as *TransientError; retrying with increasing attempt numbers is
// guaranteed to reach the real snapshot within the injector's consecutive-
// failure bound.
func (a *Archive) FetchAttempt(ref SnapshotRef, attempt int) (*Snapshot, error) {
	if err := a.faults.Check("fetch", ref.Domain, monthKey(ref.Timestamp), attempt); err != nil {
		return nil, err
	}
	return a.fetch(ref)
}

func (a *Archive) fetch(ref SnapshotRef) (*Snapshot, error) {
	page, ok := a.src.PageAt(ref.Domain, ref.Timestamp)
	if !ok {
		return nil, fmt.Errorf("wayback: no source content for %s at %s",
			ref.Domain, ref.Timestamp.Format("2006-01-02"))
	}
	snap := &Snapshot{Ref: ref, Page: page}

	log := har.New("adwars-wayback-crawler")
	pageURL := RewriteURL(ref.Timestamp, page.URL())
	pid := log.AddPage(pageURL, ref.Timestamp)

	var entries []abp.Request
	if ref.Partial {
		// Anti-bot error page: nothing loaded, so the HAR lands far
		// below the 10%-of-average size cutoff the crawler applies.
		snap.HTML = "<html><body><h1>403 Forbidden</h1>Automated access denied.</body></html>"
	} else {
		snap.HTML = web.RenderHTML(page)
		log.AddEntry(pid, pageURL, abp.TypeDocument, 200, "", ref.Timestamp)
		entries = page.Requests
	}
	for i, q := range entries {
		u := q.URL
		if !a.isEscapeURL(ref.Domain, i) {
			u = RewriteURL(ref.Timestamp, u)
		}
		body := ""
		if q.Type == abp.TypeScript && !ref.Partial {
			body = scriptBodyFor(page, q.URL)
		}
		log.AddEntry(pid, u, q.Type, 200, body, ref.Timestamp)
	}
	snap.HAR = log
	return snap, nil
}

// scriptBodyFor finds the source of the script served at url.
func scriptBodyFor(p *web.Page, url string) string {
	for _, s := range p.Scripts {
		if s.URL == url {
			return s.Source
		}
	}
	return ""
}

func (a *Archive) isEscapeURL(domain string, i int) bool {
	return stats.HashFloat("escape", domain, int64(i), a.cfg.Seed) < a.cfg.EscapeURLFraction
}

// archivePrefix is the rewritten-URL prefix the real Wayback Machine
// prepends.
const archivePrefix = "http://web.archive.org/web/"

// RewriteURL prepends the archive reference to a live URL, as the Wayback
// Machine does when serving archived pages.
func RewriteURL(ts time.Time, raw string) string {
	return archivePrefix + ts.Format("20060102150405") + "/" + raw
}

// TruncateURL removes the Wayback Machine reference from a rewritten URL,
// recovering the original live URL. Escape URLs (not rewritten) and live
// URLs pass through unchanged — the behaviour §4.2 describes.
func TruncateURL(u string) string {
	if !strings.HasPrefix(u, archivePrefix) {
		return u
	}
	rest := u[len(archivePrefix):]
	// Skip the 14-digit timestamp (possibly suffixed with flags like
	// "im_") up to the following '/'.
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return u
	}
	return rest[slash+1:]
}

// monthKey collapses a time to a per-month integer for hashing.
func monthKey(t time.Time) int64 {
	return int64(t.Year())*12 + int64(t.Month())
}
