package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"adwars/internal/abp"
)

// ---- usage ----

// UsageRule is one entry of a list's top-K hit ranking.
type UsageRule struct {
	Ordinal int    `json:"ordinal"`
	Rule    string `json:"rule"`
	Hits    uint64 `json:"hits"`
}

// UsageList is one list's per-rule usage distribution. Hits carries every
// rule that fired as an [ordinal, count] pair in ordinal order — the
// machine-readable form adwars-compact consumes; Top is the human-readable
// ranking. DeadFraction is over HTTP rules only (element-hiding rules
// never take the match path, counting them as "dead" would be noise).
type UsageList struct {
	List         string      `json:"list"`
	Rules        int         `json:"rules"`
	HTTPRules    int         `json:"http_rules"`
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
	counts := l.Usage().Counts()
	rules := l.Rules()
	ul := UsageList{List: l.Name, Rules: len(rules), Hits: make([][2]uint64, 0, 16)}
	for ord, r := range rules {
		if !r.IsHTTP() {
			continue
		}
		ul.HTTPRules++
		if counts[ord] == 0 {
			ul.DeadRules++
			continue
		}
		ul.TotalHits += counts[ord]
		ul.Hits = append(ul.Hits, [2]uint64{uint64(ord), counts[ord]})
	}
	if ul.HTTPRules > 0 {
		ul.DeadFraction = float64(ul.DeadRules) / float64(ul.HTTPRules)
	}
	if topK > 0 && len(ul.Hits) > 0 {
		ranked := append([][2]uint64(nil), ul.Hits...)
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i][1] != ranked[j][1] {
				return ranked[i][1] > ranked[j][1]
			}
			return ranked[i][0] < ranked[j][0]
		})
		if len(ranked) > topK {
			ranked = ranked[:topK]
		}
		for _, p := range ranked {
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
// The dump is both an operator surface (top-K, dead-rule fraction — the
// paper's "most rules never fire" skew, observed live) and the input
// adwars-compact turns into a tiered snapshot. ?top=N adjusts the ranking
// depth (default 10, 0 disables).
func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	ls := s.lists.Load()
	if ls == nil {
		writeError(w, http.StatusServiceUnavailable, "no_snapshot", "no lists snapshot loaded")
		return
	}
	topK := 10
	if v := r.URL.Query().Get("top"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "invalid top=%q", v)
			return
		}
		topK = n
	}
	dump := UsageDump{Lists: make([]UsageList, 0, len(ls.snap.Lists))}
	for _, l := range ls.snap.Lists {
		if l.Usage() == nil {
			writeError(w, http.StatusNotFound, "usage_disabled",
				"usage counters are disabled on this replica")
			return
		}
		ul := usageList(l, topK)
		dump.TotalHits += ul.TotalHits
		dump.Lists = append(dump.Lists, ul)
	}
	writeJSON(w, http.StatusOK, dump)
}

// ---- vars ----

func (s *Server) degradeVars() string {
	if s.gov == nil {
		return `{"enabled":false}`
	}
	data, err := json.Marshal(s.gov.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(data)
}

// analyticsVars renders the collector's cheap accounting for /debug/vars
// (lazy-read contract: nothing is computed until scraped).
func (s *Server) analyticsVars() string {
	if s.anl == nil {
		return `{"enabled":false}`
	}
	data, err := json.Marshal(s.anl.Vars())
	if err != nil {
		return "{}"
	}
	return string(data)
}

// usageAggregate is the cheap usage summary inlined into /debug/vars.
type usageAggregate struct {
	Enabled      bool    `json:"enabled"`
	TotalHits    uint64  `json:"total_hits"`
	HTTPRules    int     `json:"http_rules"`
	DeadRules    int     `json:"dead_rules"`
	DeadFraction float64 `json:"dead_fraction"`
}

// usageVars renders the aggregate as JSON. The counters are sharded
// per-bank atomics; merging them happens here, on the read side, so the
// match path never pays for metrics export (satellite of the lazy-read
// contract: /debug/vars computes the aggregate only when scraped).
func (s *Server) usageVars() string {
	agg := usageAggregate{}
	if ls := s.lists.Load(); ls != nil {
		for _, l := range ls.snap.Lists {
			u := l.Usage()
			if u == nil {
				continue
			}
			agg.Enabled = true
			counts := u.Counts()
			for ord, r := range l.Rules() {
				if !r.IsHTTP() {
					continue
				}
				agg.HTTPRules++
				if counts[ord] == 0 {
					agg.DeadRules++
				} else {
					agg.TotalHits += counts[ord]
				}
			}
		}
	}
	if agg.HTTPRules > 0 {
		agg.DeadFraction = float64(agg.DeadRules) / float64(agg.HTTPRules)
	}
	data, err := json.Marshal(agg)
	if err != nil {
		return "{}"
	}
	return string(data)
}

// handleDebugVars renders the process-global expvar registry plus this
// server's metrics tree under "adwars_serve" — the standard /debug/vars
// shape without requiring the server to win a global registration race
// (tests run many servers in one process).
func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	first := true
	expvar.Do(func(kv expvar.KeyValue) {
		if kv.Key == "adwars_serve" {
			return // replaced below with this server's tree
		}
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
	})
	if !first {
		fmt.Fprintf(w, ",\n")
	}
	fmt.Fprintf(w, "%q: %s", "adwars_serve", s.met.String())
	fmt.Fprintf(w, ",\n%q: %s", "adwars_usage", s.usageVars())
	fmt.Fprintf(w, ",\n%q: %s", "adwars_analytics", s.analyticsVars())
	fmt.Fprintf(w, ",\n%q: %s", "adwars_degrade", s.degradeVars())
	fmt.Fprintf(w, "\n}\n")
}
