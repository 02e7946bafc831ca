package experiments

import (
	"context"
	"fmt"
	"strings"

	"adwars/internal/browser"
	"adwars/internal/crawler"
	"adwars/internal/fanout"
)

// LiveConfig parameterizes the §4.3 live crawl.
type LiveConfig struct {
	// Metrics, when non-nil, accumulates crawl counters.
	Metrics *crawler.Metrics
}

// LiveScript is a detected anti-adblock script from the live crawl, used
// by the §5 out-of-sample model test.
type LiveScript struct {
	Domain string
	Rank   int
	Source string
}

// LiveResult aggregates the live crawl (§4.3).
type LiveResult struct {
	Total, Reachable int
	// HTTPTriggered / HTMLTriggered count sites per list.
	HTTPTriggered map[string]int
	HTMLTriggered map[string]int
	// ThirdPartyShare is, per list, the share of HTTP-matched sites whose
	// matched requests hit third-party hosts (target L1 holds AAK's).
	ThirdPartyShare map[string]float64
	// Scripts are the unique detected anti-adblock scripts (deduplicated
	// by source) with the detecting site's rank, feeding §5's live test.
	Scripts []LiveScript
}

// RunLive crawls the live universe (the paper's top 100,000, scaled) against
// the most recent list versions.
func (l *Lab) RunLive(ctx context.Context, cfg LiveConfig) (*LiveResult, error) {
	domains := l.World.TopDomains(l.World.Cfg.UniverseSize)
	results, err := crawler.CrawlLive(ctx, l.World, domains, cfg.Metrics)
	if err != nil {
		return nil, err
	}

	// The most recent list versions, from the shared per-revision compile
	// cache (so the CLI's retro + live run compiles them once).
	lists := l.listsAt(l.World.Cfg.LiveDate)

	res := &LiveResult{
		Total:           len(domains),
		HTTPTriggered:   map[string]int{},
		HTMLTriggered:   map[string]int{},
		ThirdPartyShare: map[string]float64{},
	}
	thirdParty := map[string]int{}
	seenScript := map[string]bool{}

	// Fan-out per-site matching, then fold sequentially in crawl order —
	// same two-stage shape as ReplayRun.Replay, so the fan-out never changes
	// the rendered numbers.
	replays := make([]siteReplay, len(results))
	fanout.ForEach(context.Background(), crawler.Browsers, len(results), func(i int) {
		r := results[i]
		if r.Page == nil {
			return
		}
		replays[i] = replaySite(lists, r.Domain, siteInput{reqs: r.Page.Requests, views: browser.PageViews(r.Page)})
	})

	for i, r := range results {
		if r.Page == nil {
			continue
		}
		res.Reachable++
		rep := replays[i]
		matchedAny := false
		for _, name := range ListNames {
			if lists[name].http == nil {
				continue
			}
			blocked := rep.blocked[name]
			if len(blocked) > 0 {
				res.HTTPTriggered[name]++
				if anyThirdParty(blocked, r.Domain) {
					thirdParty[name]++
				}
				matchedAny = true
			}
			if rep.htmlHit[name] {
				res.HTMLTriggered[name]++
			}
		}
		if matchedAny {
			for _, s := range r.Page.Scripts {
				if s.AntiAdblock && !seenScript[s.Source] {
					seenScript[s.Source] = true
					res.Scripts = append(res.Scripts, LiveScript{
						Domain: r.Domain,
						Rank:   l.World.RankOf(r.Domain),
						Source: s.Source,
					})
				}
			}
		}
	}
	for _, name := range ListNames {
		if res.HTTPTriggered[name] > 0 {
			res.ThirdPartyShare[name] = float64(thirdParty[name]) / float64(res.HTTPTriggered[name])
		}
	}
	return res, nil
}

// Render prints the §4.3 headline numbers.
func (r *LiveResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.3 — live crawl of top-%d (reachable %d)\n", r.Total, r.Reachable)
	for _, n := range ListNames {
		fmt.Fprintf(&b, "%-22s HTTP-triggered %6d   HTML-triggered %4d   third-party share %.0f%%\n",
			n, r.HTTPTriggered[n], r.HTMLTriggered[n], 100*r.ThirdPartyShare[n])
	}
	fmt.Fprintf(&b, "unique anti-adblock scripts collected: %d\n", len(r.Scripts))
	return b.String()
}
