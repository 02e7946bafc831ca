package experiments

import (
	"fmt"
	"sort"
	"strings"

	"adwars/internal/abp"
	"adwars/internal/web"
)

// ---- Dead-rule fraction: how much of each list ever fires ----

// DeadRuleList is one list's usage profile after the replay: how many of
// its HTTP rules decided at least one verdict, how concentrated the hits
// are, and what a usage-driven hot tier would cost in working set.
type DeadRuleList struct {
	Name      string
	Rules     int
	HTTPRules int
	// FiredRules is how many HTTP rules won at least one verdict; the
	// dead fraction is over HTTP rules only (element-hiding rules never
	// take the match path).
	FiredRules   int
	DeadFraction float64
	TotalHits    uint64
	// Top10Share is the share of all hits decided by the ten most-hit
	// rules — the concentration that makes tiering pay.
	Top10Share float64
	// HotBytes is the automaton working set after compacting around the
	// fired rules (CompileTiered on hits > 0); FlatBytes is the untiered
	// automaton the whole list compiles to.
	HotBytes  int
	FlatBytes int
}

// DeadRuleResult is the dead-rule experiment across the §3 lists.
type DeadRuleResult struct {
	Sites    int
	Requests int
	Lists    []DeadRuleList
}

// DeadRules replays the live top-N sites' request streams against each
// list's latest revision with usage telemetry enabled and reports the
// fraction of rules that never fire — the "Who Filters the Filters"
// observation that motivates hot/cold compaction: the overwhelming
// majority of crowdsourced rules are dead weight on the hot path.
// topN ≤ 0 uses the retrospective crawl population (5,000 × scale).
func (l *Lab) DeadRules(topN int) *DeadRuleResult {
	if topN <= 0 {
		topN = int(5000 * l.Scale())
	}
	// Materialize the request streams once; both lists replay the same
	// traffic.
	type site struct {
		domain string
		reqs   []web.Request
	}
	var sites []site
	out := &DeadRuleResult{}
	for _, d := range l.World.TopDomains(topN) {
		page, ok := l.World.LivePage(d)
		if !ok {
			continue
		}
		sites = append(sites, site{domain: d, reqs: page.Requests})
		out.Sites++
		out.Requests += len(page.Requests)
	}

	for _, name := range ListNames {
		h := l.histories()[name]
		latest := h.LatestList()
		if latest == nil {
			continue
		}
		// Fresh compile so the experiment's counters never leak into the
		// lab's shared per-revision list cache.
		list := abp.NewList(name, latest.Rules())
		list.EnableUsage()
		for _, s := range sites {
			for _, rq := range s.reqs {
				list.MatchRequest(abp.Request{URL: rq.URL, Type: rq.Type, PageDomain: s.domain})
			}
		}
		httpRules, fired := list.UsageProfile()
		dl := DeadRuleList{Name: name, Rules: len(list.Rules()), HTTPRules: httpRules, FiredRules: len(fired)}
		if dl.HTTPRules > 0 {
			dl.DeadFraction = float64(dl.HTTPRules-dl.FiredRules) / float64(dl.HTTPRules)
		}
		hot := make([]bool, len(list.Rules()))
		hits := make([]uint64, len(fired))
		for i, p := range fired {
			hot[p[0]] = true
			hits[i] = p[1]
			dl.TotalHits += p[1]
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i] > hits[j] })
		var top uint64
		for i := 0; i < len(hits) && i < 10; i++ {
			top += hits[i]
		}
		if dl.TotalHits > 0 {
			dl.Top10Share = float64(top) / float64(dl.TotalHits)
		}
		dl.FlatBytes = list.TierStats().HotBytes
		dl.HotBytes = list.CompileTiered(func(ord int) bool { return hot[ord] }).TierStats().HotBytes
		out.Lists = append(out.Lists, dl)
	}
	return out
}

// Render prints the dead-rule exhibit: one row per list.
func (r *DeadRuleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dead rules — live replay over %d sites (%d requests)\n", r.Sites, r.Requests)
	fmt.Fprintf(&b, "%-20s %7s %7s %7s %6s %8s %6s %10s %10s\n",
		"list", "rules", "http", "fired", "dead%", "hits", "top10", "hot-bytes", "flat-bytes")
	for _, dl := range r.Lists {
		fmt.Fprintf(&b, "%-20s %7d %7d %7d %5.1f%% %8d %5.0f%% %10d %10d\n",
			dl.Name, dl.Rules, dl.HTTPRules, dl.FiredRules, 100*dl.DeadFraction,
			dl.TotalHits, 100*dl.Top10Share, dl.HotBytes, dl.FlatBytes)
	}
	return b.String()
}
