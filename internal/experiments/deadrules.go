package experiments

import (
	"fmt"
	"sort"
	"strings"

	"adwars/internal/abp"
)

// ---- Dead-rule fraction: how much of each list ever fires ----

// DeadRuleList is one list's usage profile after the replay: how many of
// its HTTP rules decided at least one verdict, how concentrated the hits
// are, and what a list pruned to the rules that fired would ship.
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
	// rules.
	Top10Share float64
	// HotBytes is the automaton a list of the fired rules alone compiles
	// to (NewList over them: what a pruned list would ship); FlatBytes is
	// the automaton the whole list compiles to.
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
// observation that the overwhelming majority of crowdsourced rules are
// dead weight.
// topN ≤ 0 uses the retrospective crawl population (5,000 × scale).
func (l *Lab) DeadRules(topN int) *DeadRuleResult {
	if topN <= 0 {
		topN = int(5000 * l.Scale())
	}
	// Materialize the request streams once; both lists replay the same
	// traffic.
	var sites [][]abp.Request
	out := &DeadRuleResult{}
	for _, d := range l.World.TopDomains(topN) {
		page, ok := l.World.LivePage(d)
		if !ok {
			continue
		}
		sites = append(sites, page.Requests)
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
		for _, reqs := range sites {
			for _, q := range reqs {
				list.MatchRequest(q)
			}
		}
		httpRules, fired := list.UsageProfile()
		dl := DeadRuleList{Name: name, Rules: len(list.Rules()), HTTPRules: httpRules, FiredRules: len(fired)}
		if dl.HTTPRules > 0 {
			dl.DeadFraction = float64(dl.HTTPRules-dl.FiredRules) / float64(dl.HTTPRules)
		}
		kept := make([]*abp.Rule, len(fired))
		hits := make([]uint64, len(fired))
		for i, p := range fired {
			kept[i] = list.Rules()[p[0]]
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
		dl.FlatBytes = len(list.AutomatonBytes())
		dl.HotBytes = len(abp.NewList(name, kept).AutomatonBytes())
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
