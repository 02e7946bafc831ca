package serve

import (
	"cmp"
	"net/http"
	"slices"
	"strconv"

	"adwars/internal/abp"
	"adwars/internal/chassis"
)

// ---- usage ----

// UsageRule is one entry of a list's top-K hit ranking.
type UsageRule struct {
	Ordinal int    `json:"ordinal"`
	Rule    string `json:"rule"`
	Hits    uint64 `json:"hits"`
}

// probeGeometry says how a list's HTTP rules reach a probe (abp.TierStats):
// through an automaton keyword (guarded: the scan also checks the run's
// context), through the page-domain index, or as candidates of every request;
// and, from the list's usage counters, what that comes to: the probes the
// list answered and the candidates they verified.
type probeGeometry struct {
	KeywordRules int    `json:"keyword_rules"`
	DomainRules  int    `json:"domain_rules"`
	GenericRules int    `json:"generic_rules"`
	Probes       uint64 `json:"probes"`
	Candidates   uint64 `json:"candidates"`
	GuardedRules int    `json:"guarded_rules"`
}

func (g *probeGeometry) add(l *abp.List) {
	st := l.TierStats()
	g.KeywordRules += st.KeywordRules
	g.DomainRules += st.DomainRules
	g.GenericRules += st.GenericRules
	g.GuardedRules += st.GuardedRules
	probes, candidates := l.Usage().Probes()
	g.Probes += probes
	g.Candidates += candidates
}

// UsageList is one list's per-rule usage distribution. Hits carries every
// rule that fired as an [ordinal, count] pair in ordinal order — the
// machine-readable form; Top is the human-readable ranking. DeadFraction is over HTTP rules only (element-hiding rules
// never take the match path, counting them as "dead" would be noise).
type UsageList struct {
	List      string `json:"list"`
	Rules     int    `json:"rules"`
	HTTPRules int    `json:"http_rules"`
	probeGeometry
	TotalHits    uint64      `json:"total_hits"`
	DeadRules    int         `json:"dead_rules"`
	DeadFraction float64     `json:"dead_fraction"`
	Top          []UsageRule `json:"top,omitempty"`
	Hits         [][2]uint64 `json:"hits"`
}

// UsageDump is the /admin/usage response body.
type UsageDump struct {
	TotalHits uint64      `json:"total_hits"`
	Lists     []UsageList `json:"lists"`
}

// usageList builds one list's usage report with the given top-K depth.
func usageList(l *abp.List, topK int) UsageList {
	rules := l.Rules()
	httpRules, fired := l.UsageProfile()
	ul := UsageList{List: l.Name, Rules: len(rules), HTTPRules: httpRules,
		DeadRules: httpRules - len(fired), Hits: fired}
	ul.add(l)
	for _, p := range fired {
		ul.TotalHits += p[1]
	}
	if ul.HTTPRules > 0 {
		ul.DeadFraction = float64(ul.DeadRules) / float64(ul.HTTPRules)
	}
	if topK > 0 && len(ul.Hits) > 0 {
		ranked := slices.Clone(ul.Hits)
		slices.SortFunc(ranked, func(a, b [2]uint64) int {
			return cmp.Or(cmp.Compare(b[1], a[1]), cmp.Compare(a[0], b[0]))
		})
		for _, p := range ranked[:min(topK, len(ranked))] {
			ul.Top = append(ul.Top, UsageRule{
				Ordinal: int(p[0]),
				Rule:    rules[p[0]].Raw,
				Hits:    p[1],
			})
		}
	}
	return ul
}

// handleUsage dumps the per-rule hit counters of every served list: the
// shard banks are merged on read (recording never pays for reporting).
// The dump is an operator surface (top-K, dead-rule fraction — the paper's
// "most rules never fire" skew, observed live) and what loadgen's usage gate
// reconciles against. ?top=N adjusts the ranking depth (default 10, 0
// disables).
func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	if !chassis.RequireMethod(w, r, http.MethodGet) {
		return
	}
	ls := s.lists.Load()
	if ls == nil {
		chassis.WriteError(w, http.StatusServiceUnavailable, "no_snapshot", "no lists snapshot loaded")
		return
	}
	topK := 10
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			chassis.WriteError(w, http.StatusBadRequest, "bad_request", "invalid top=%q", v)
			return
		}
		topK = n
	}
	dump := UsageDump{Lists: make([]UsageList, 0, len(ls.snap.Lists))}
	for _, l := range ls.snap.Lists {
		ul := usageList(l, topK)
		dump.TotalHits += ul.TotalHits
		dump.Lists = append(dump.Lists, ul)
	}
	chassis.WriteJSON(w, http.StatusOK, dump)
}

// ---- vars ----

// usageAggregate is the cheap usage summary inlined into /debug/vars.
type usageAggregate struct {
	Enabled      bool    `json:"enabled"`
	TotalHits    uint64  `json:"total_hits"`
	HTTPRules    int     `json:"http_rules"`
	DeadRules    int     `json:"dead_rules"`
	DeadFraction float64 `json:"dead_fraction"`
	probeGeometry
}

// usageVars sums the lists' usage reports and their probe geometry. The
// counters are sharded per-bank atomics; merging them happens here, on the
// read side, so the match path never pays for metrics export (/debug/vars
// computes the aggregate only when scraped). Every served list counts, so
// the aggregate is enabled whenever lists are loaded.
func (s *Server) usageVars() usageAggregate {
	agg := usageAggregate{}
	if ls := s.lists.Load(); ls != nil {
		agg.Enabled = true
		for _, l := range ls.snap.Lists {
			ul := usageList(l, 0)
			agg.TotalHits += ul.TotalHits
			agg.HTTPRules += ul.HTTPRules
			agg.DeadRules += ul.DeadRules
			agg.add(l)
		}
	}
	if agg.HTTPRules > 0 {
		agg.DeadFraction = float64(agg.DeadRules) / float64(agg.HTTPRules)
	}
	return agg
}

// handleDebugVars renders the process-global expvar registry, then this
// server's metrics tree under "adwars_serve", the usage aggregate, the
// analytics collector's cheap accounting (lazy-read contract: nothing is
// computed until scraped).
func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	chassis.WriteVars(w, r,
		chassis.Var{Key: "adwars_serve", Tree: s.met},
		chassis.Var{Key: "adwars_usage", Tree: s.usageVars()},
		chassis.Var{Key: "adwars_analytics", Tree: s.anl.Vars()})
}
