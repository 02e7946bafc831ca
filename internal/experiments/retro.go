package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"adwars/internal/abp"
	"adwars/internal/browser"
	"adwars/internal/crawler"
	"adwars/internal/fanout"
	"adwars/internal/listgen"
	"adwars/internal/stats"
	"adwars/internal/wayback"
)

// RetroConfig parameterizes the retrospective measurement (§4.1–4.2).
type RetroConfig struct {
	// TopN is the Alexa cut the crawl covers (5,000 in the paper).
	TopN int
	// Months is the crawl schedule (use Lab.RetroMonths).
	Months []time.Time
	// Faults injects deterministic transient archive failures (rate
	// limiting, timeouts, truncated bodies, outages). The zero value
	// disables injection; with it enabled, the crawl engine's retry path
	// absorbs every transient, so Figure 5/6 output is identical to a
	// zero-fault run with the same seed.
	Faults wayback.FaultConfig
	// Metrics, when non-nil, accumulates crawl counters for reporting.
	Metrics *crawler.Metrics
	// Shards is ignored: the replay runs crawler.Browsers wide. It stays
	// only because the benchmark module (bench/, changed on its own) sets
	// it; ROADMAP item 10(a)'s seam deletes it.
	Shards int
}

// MonthCoverage is one month's measurement outcome.
type MonthCoverage struct {
	Month time.Time
	// Figure 5 components.
	NotArchived, Outdated, Partial int
	// Figure 6 components, keyed by list name.
	HTTPTriggered map[string]int
	HTMLTriggered map[string]int
}

// RetroResult aggregates the full retrospective study.
type RetroResult struct {
	Months   []MonthCoverage
	Excluded int // permanently unarchived domains (robots/admin/undefined)

	// FirstMatch records, per list, the first month each site triggered
	// an HTTP rule.
	FirstMatch map[string]map[string]time.Time

	// ThirdPartyMatched counts, per list, sites whose matched requests
	// point at third-party anti-adblock hosts (§4.2: >98% for AAK).
	ThirdPartyMatched map[string]int

	// CorpusPos and CorpusNeg are the unique script sources collected
	// for §5: scripts whose URLs matched HTTP rules (positives) and the
	// remaining scripts (negatives).
	CorpusPos, CorpusNeg []string
}

// RunRetrospective crawls monthly top-N snapshots through the archive and
// replays each against the filter-list version in force at that time —
// exactly the paper's Figure 4 pipeline. The crawl and the replay are the
// two halves of PrepareReplay + ReplayRun.Replay; this runs both.
func (l *Lab) RunRetrospective(ctx context.Context, cfg RetroConfig) (*RetroResult, error) {
	run, err := l.PrepareReplay(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return run.Replay(), nil
}

// ReplayRun holds one crawl's worth of monthly snapshots so the replay —
// the pure matching half of the pipeline — can be repeated without
// refetching. Snapshot HTML is parsed and HAR entries turned into requests
// once, at prepare time, so Replay measures rule matching rather than DOM
// parsing. Benchmarks crawl once and time Replay.
type ReplayRun struct {
	lab     *Lab
	months  []*crawler.MonthResult
	inputs  [][]siteInput
	exclude int
}

// siteInput is one crawled site-month reduced to what matching consumes:
// its requests as the adblocker sees them and the parsed DOM's element
// views. Archived requests are index-aligned with the snapshot's HAR
// entries.
type siteInput struct {
	reqs  []abp.Request
	views []*abp.Element
}

// PrepareReplay runs the crawl half of RunRetrospective: every month's
// top-N snapshots fetched (with retries), ready to be replayed against
// historic list versions. A cancelled crawl returns ctx.Err() and no run;
// running it again gives the same snapshots.
func (l *Lab) PrepareReplay(ctx context.Context, cfg RetroConfig) (*ReplayRun, error) {
	if cfg.TopN <= 0 {
		cfg.TopN = int(5000 * l.Scale())
	}
	if len(cfg.Months) == 0 {
		cfg.Months = l.RetroMonths(1)
	}
	domains := l.World.TopDomains(cfg.TopN)
	archCfg := wayback.DefaultConfig(l.Seed)
	archCfg.Start, archCfg.End = l.World.Cfg.Start, l.World.Cfg.End
	// Exclusion counts scale with the crawl population.
	frac := float64(cfg.TopN) / 5000
	archCfg.Robots = int(153 * frac)
	archCfg.Admin = int(26 * frac)
	archCfg.Undefined = int(54 * frac)
	archCfg.Faults = cfg.Faults
	arch := wayback.New(l.World, domains, archCfg)

	run := &ReplayRun{lab: l}
	// A domain's snapshot HTML changes only with its content year or its
	// deployment, so its DOM views are kept while the HTML is byte-equal
	// to the last month's (the zero values are DOMViews("")).
	lastHTML := make([]string, len(domains))
	lastViews := make([][]*abp.Element, len(domains))
	for _, month := range cfg.Months {
		mr, err := crawler.CrawlMonth(ctx, arch, domains, month, cfg.Metrics)
		if err != nil {
			return nil, fmt.Errorf("experiments: crawl %s: %w", stats.MonthLabel(month), err)
		}
		// Reduce each snapshot to match inputs up front: each HAR entry
		// becomes the request the page issued (live URL, recorded type),
		// and the HTML is parsed. Both are per-snapshot constants, so they
		// belong to the crawl half, not the (repeatable) replay half.
		inputs := make([]siteInput, len(mr.Results))
		err = fanout.ForEach(ctx, crawler.Browsers, len(mr.Results), func(i int) {
			sr := mr.Results[i]
			if sr.Status != crawler.StatusOK {
				return
			}
			snap := sr.Snapshot
			reqs := make([]abp.Request, len(snap.HAR.Entries))
			for j, e := range snap.HAR.Entries {
				reqs[j] = abp.Request{URL: wayback.TruncateURL(e.Request.URL), Type: abp.RequestType(e.Request.ResourceType), PageDomain: sr.Domain}
			}
			if snap.HTML != lastHTML[i] {
				lastHTML[i], lastViews[i] = snap.HTML, browser.DOMViews(snap.HTML)
			}
			inputs[i] = siteInput{reqs: reqs, views: lastViews[i]}
		})
		if err != nil {
			// Cancelled with sites unprepared: no run, as for the crawl.
			return nil, err
		}
		run.months = append(run.months, mr)
		run.inputs = append(run.inputs, inputs)
		run.exclude = mr.Counts[crawler.StatusExcluded]
	}
	return run, nil
}

// siteReplay is one site-month's match outcome against every list in
// force: the blocked-URL set and whether any element-hiding rule fired.
// Computing it is the embarrassingly parallel half of the replay; folding
// it into RetroResult stays sequential because FirstMatch, the third-party
// tallies, and the corpus dedup/cap depend on visit order.
type siteReplay struct {
	blocked map[string]map[string]bool
	htmlHit map[string]bool
}

// Run is Replay. Both parameters are ignored: the shard count set a width
// the replay no longer takes and the bool a linear-scan replay that is gone.
// It stays only because the benchmark module (bench/pipeline.go, changed on
// its own) calls it; ROADMAP item 10(a)'s seam deletes it.
func (rr *ReplayRun) Run(int, bool) *RetroResult { return rr.Replay() }

// Replay replays every crawled month against the filter-list version in
// force at that time (§4.2 uses historic versions, not the final lists).
// Per-site matching fans out crawler.Browsers wide; the fold runs
// sequentially in (month, site, list) order, so the fan-out never changes
// the rendered bytes.
func (rr *ReplayRun) Replay() *RetroResult {
	res := &RetroResult{
		Excluded:          rr.exclude,
		FirstMatch:        map[string]map[string]time.Time{},
		ThirdPartyMatched: map[string]int{},
	}
	for _, name := range ListNames {
		res.FirstMatch[name] = map[string]time.Time{}
	}
	posSeen := map[string]bool{}
	negSeen := map[string]bool{}

	for mi, mr := range rr.months {
		month := mr.Month
		cov := MonthCoverage{
			Month:         month,
			NotArchived:   mr.Counts[crawler.StatusNotArchived],
			Outdated:      mr.Counts[crawler.StatusOutdated],
			Partial:       mr.Counts[crawler.StatusPartial],
			HTTPTriggered: map[string]int{},
			HTMLTriggered: map[string]int{},
		}
		lists := rr.lab.listsAt(month)

		// Fan-out: match every surviving site against every list. The
		// compiled lists are shared across workers — they are immutable
		// and race-free by construction (see abp: precompiled matchers).
		inputs := rr.inputs[mi]
		replays := make([]siteReplay, len(mr.Results))
		fanout.ForEach(context.Background(), crawler.Browsers, len(mr.Results), func(i int) {
			if mr.Results[i].Status != crawler.StatusOK {
				return
			}
			replays[i] = replaySite(lists, mr.Results[i].Domain, inputs[i])
		})

		// Fold: sequential, in crawl order — identical accounting to the
		// old one-site-at-a-time loop.
		for i, sr := range mr.Results {
			if sr.Status != crawler.StatusOK {
				continue
			}
			rep := replays[i]
			siteMatched := false
			for _, name := range ListNames {
				if lists[name].http == nil {
					continue
				}
				blockedURLs := rep.blocked[name]
				if len(blockedURLs) > 0 {
					cov.HTTPTriggered[name]++
					if _, ok := res.FirstMatch[name][sr.Domain]; !ok {
						res.FirstMatch[name][sr.Domain] = month
						if anyThirdParty(blockedURLs, sr.Domain) {
							res.ThirdPartyMatched[name]++
						}
					}
					siteMatched = true
					collectPositives(sr.Snapshot, inputs[i].reqs, blockedURLs, posSeen, &res.CorpusPos)
				}
				if rep.htmlHit[name] {
					cov.HTMLTriggered[name]++
				}
			}
			if !siteMatched {
				// Keep the pool generously oversized; Corpus.trim
				// enforces the final 10:1 imbalance uniformly, so the
				// negative class spans the whole crawl window.
				collectNegatives(sr.Snapshot, negSeen, &res.CorpusNeg, 25*len(posSeen)+500)
			}
		}
		res.Months = append(res.Months, cov)
	}
	return res
}

// replaySite matches one prepared site-month against every list in force:
// its requests against the HTTP rules and its parsed DOM (shared by every
// list) against the element-hiding index.
func replaySite(lists map[string]listVersion, domain string, in siteInput) siteReplay {
	rep := siteReplay{
		blocked: make(map[string]map[string]bool, len(lists)),
		htmlHit: make(map[string]bool, len(lists)),
	}
	for name, list := range lists {
		if list.http == nil {
			continue
		}
		rep.blocked[name] = blockedHTTP(list.http, in.reqs)
		rep.htmlHit[name] = len(list.hide.HiddenElements(domain, in.views)) > 0
	}
	return rep
}

// blockedHTTP returns the URLs of the requests a list blocks
// (exception-allowed requests do not make a site "anti-adblocking").
func blockedHTTP(list *abp.List, reqs []abp.Request) map[string]bool {
	var blocked map[string]bool
	for _, q := range reqs {
		if dec, _ := list.MatchRequest(q); dec == abp.Blocked {
			if blocked == nil {
				blocked = map[string]bool{}
			}
			blocked[q.URL] = true
		}
	}
	return blocked
}

// anyThirdParty reports whether any matched URL is served off-site.
func anyThirdParty(urls map[string]bool, pageDomain string) bool {
	for u := range urls {
		q := abp.Request{URL: u, PageDomain: pageDomain}
		if q.IsThirdParty() {
			return true
		}
	}
	return false
}

// collectPositives stores the script bodies behind matched URLs; reqs are
// the snapshot's prepared requests, one per HAR entry.
func collectPositives(snap *wayback.Snapshot, reqs []abp.Request, blocked map[string]bool, seen map[string]bool, out *[]string) {
	for j, e := range snap.HAR.Entries {
		if e.Response.Content.Text == "" {
			continue
		}
		if !blocked[reqs[j].URL] {
			continue
		}
		src := e.Response.Content.Text
		if !seen[src] {
			seen[src] = true
			*out = append(*out, src)
		}
	}
	// Inline anti-adblock scripts travel with the page, not the HAR;
	// real crawls capture them from page content. Use the structured
	// page the simulator kept.
	for _, s := range snap.Page.Scripts {
		if s.AntiAdblock && s.URL != "" && blocked[s.URL] && !seen[s.Source] {
			seen[s.Source] = true
			*out = append(*out, s.Source)
		}
	}
}

// collectNegatives stores script bodies from sites the filter lists did
// not match, up to a cap that keeps the corpus near the paper's 10:1
// imbalance. Crucially, this is the paper's labeling: "we use the
// remaining scripts that the filter lists did not identify as
// anti-adblockers" — so anti-adblock scripts the lists MISSED land in the
// negative class. The classifier's measured FP rate therefore includes
// correctly-flagged list misses, which is where the paper's 3–9% FP rates
// come from and why manual review of detections is still required.
func collectNegatives(snap *wayback.Snapshot, seen map[string]bool, out *[]string, limit int) {
	if len(*out) >= limit {
		return
	}
	for _, s := range snap.Page.Scripts {
		if s.Source == "" {
			continue
		}
		if !seen[s.Source] {
			seen[s.Source] = true
			*out = append(*out, s.Source)
		}
		if len(*out) >= limit {
			return
		}
	}
}

// ---- Figure 5 rendering ----

// RenderFig5 prints the monthly missing-snapshot series.
func (r *RetroResult) RenderFig5() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 — missing monthly snapshots (excluded upfront: %d)\n", r.Excluded)
	fmt.Fprintf(&b, "%-8s %12s %12s %9s %7s\n", "month", "notArchived", "outdated", "partial", "total")
	for _, m := range r.Months {
		fmt.Fprintf(&b, "%-8s %12d %12d %9d %7d\n", stats.MonthLabel(m.Month),
			m.NotArchived, m.Outdated, m.Partial,
			m.NotArchived+m.Outdated+m.Partial)
	}
	return b.String()
}

// RenderFig6 prints the monthly trigger series for both lists.
func (r *RetroResult) RenderFig6() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — sites triggering filter rules per month\n")
	fmt.Fprintf(&b, "%-8s", "month")
	for _, n := range ListNames {
		fmt.Fprintf(&b, " %14s", "HTTP "+abbrev(n))
	}
	for _, n := range ListNames {
		fmt.Fprintf(&b, " %14s", "HTML "+abbrev(n))
	}
	b.WriteByte('\n')
	for _, m := range r.Months {
		fmt.Fprintf(&b, "%-8s", stats.MonthLabel(m.Month))
		for _, n := range ListNames {
			fmt.Fprintf(&b, " %14d", m.HTTPTriggered[n])
		}
		for _, n := range ListNames {
			fmt.Fprintf(&b, " %14d", m.HTMLTriggered[n])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func abbrev(name string) string {
	if strings.HasPrefix(name, "Anti") {
		return "AAK"
	}
	return "CEL"
}

// ---- Figure 7: detection delay ----

// Fig7Result is, per list, the CDF of days between a site deploying an
// anti-adblocker and the list first carrying a rule that detects it.
type Fig7Result struct {
	Delays map[string][]float64
	CDFs   map[string]*stats.CDF
}

// Fig7 computes detection delays analytically from the ground truth: a
// deployment is detected at the earlier of (a) the list's generic rule
// covering its vendor and (b) the list's first site-specific rule naming
// its domain.
func (l *Lab) Fig7(topN int) *Fig7Result {
	if topN <= 0 {
		topN = int(5000 * l.Scale())
	}
	top := map[string]bool{}
	for _, d := range l.World.TopDomains(topN) {
		top[d] = true
	}
	out := &Fig7Result{
		Delays: map[string][]float64{},
		CDFs:   map[string]*stats.CDF{},
	}
	firstSeen := map[string]map[string]time.Time{
		"Anti-Adblock Killer": l.Lists.AAK.DomainFirstSeen(),
		"Combined EasyList":   l.Lists.Combined.DomainFirstSeen(),
	}
	vendorTime := map[string]func(string) time.Time{
		"Anti-Adblock Killer": listgen.AAKVendorRuleTime,
		"Combined EasyList":   listgen.CELBroadRuleTime,
	}
	for _, d := range l.World.Deployments() {
		if !top[d.SiteDomain] || !d.ActiveAt(l.World.Cfg.End) {
			continue
		}
		for name := range firstSeen {
			detect := time.Time{}
			// Generic vendor/path rules only reach deployments that
			// load the vendor's canonical script URL.
			if vt := vendorTime[name](d.Vendor.Name); !vt.IsZero() && d.CanonicalScript() {
				detect = vt
			}
			if st, ok := firstSeen[name][d.SiteDomain]; ok {
				if detect.IsZero() || st.Before(detect) {
					detect = st
				}
			}
			if detect.IsZero() || detect.After(l.World.Cfg.End) {
				continue // never detected within the study window
			}
			days := detect.Sub(d.Start).Hours() / 24
			out.Delays[name] = append(out.Delays[name], days)
		}
	}
	for name, ds := range out.Delays {
		out.CDFs[name] = stats.NewCDF(ds)
	}
	return out
}

// Render prints Figure 7's CDFs at the paper's ticks.
func (f *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — detection delay (days from deployment to first matching rule)\n")
	ticks := []float64{-1080, -720, -360, -180, 0, 100, 180, 360, 540, 720, 1080}
	fmt.Fprintf(&b, "%-10s", "days")
	for _, n := range ListNames {
		fmt.Fprintf(&b, " %20s", n)
	}
	b.WriteByte('\n')
	for _, x := range ticks {
		fmt.Fprintf(&b, "%-10.0f", x)
		for _, n := range ListNames {
			c := f.CDFs[n]
			if c == nil {
				fmt.Fprintf(&b, " %20s", "-")
				continue
			}
			fmt.Fprintf(&b, " %20.3f", c.At(x))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
