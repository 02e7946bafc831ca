package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adwars/internal/abp"
	"adwars/internal/degrade"
)

func decodeUsage(t *testing.T, body []byte) UsageDump {
	t.Helper()
	var dump UsageDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("usage dump does not parse: %v\n%s", err, body)
	}
	return dump
}

// TestUsageEndpoint drives traffic with known winners through /v1/match
// and checks the /admin/usage dump reconciles exactly: hits attributed to
// the winning rule per list, dead-rule fraction over HTTP rules, top-K
// ranking, and machine-readable [ordinal, hits] pairs.
func TestUsageEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})

	// 3 hits on list-a's block, 1 on its exception, 1 on list-b's block.
	for i := 0; i < 3; i++ {
		do(t, s, "POST", "/v1/match",
			`{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`)
	}
	do(t, s, "POST", "/v1/match",
		`{"url":"http://ads.example.com/allowed","type":"script","page_domain":"news.example"}`)
	do(t, s, "POST", "/v1/match",
		`{"url":"http://tracker.example/t.js","type":"script","page_domain":"news.example"}`)
	// A no-match query must not count anywhere.
	do(t, s, "POST", "/v1/match", `{"url":"http://clean.example/app.js"}`)

	rec := do(t, s, "GET", "/admin/usage", "")
	if rec.Code != 200 {
		t.Fatalf("usage status = %d: %s", rec.Code, rec.Body.Bytes())
	}
	dump := decodeUsage(t, rec.Body.Bytes())
	// The allowed query matches both the exception and the underlying
	// block rule of list-a, but the verdict — and therefore the hit — goes
	// to the exception alone.
	if dump.TotalHits != 5 {
		t.Fatalf("total hits = %d, want 5\n%s", dump.TotalHits, rec.Body.Bytes())
	}
	if len(dump.Lists) != 2 {
		t.Fatalf("lists = %d, want 2", len(dump.Lists))
	}
	a, b := dump.Lists[0], dump.Lists[1]
	if a.List != "list-a" || b.List != "list-b" {
		t.Fatalf("list order = %q, %q", a.List, b.List)
	}
	if a.TotalHits != 4 || b.TotalHits != 1 {
		t.Fatalf("per-list hits = %d, %d, want 4, 1", a.TotalHits, b.TotalHits)
	}
	// list-a has 3 HTTP rules (block, exception, third-party frame); the
	// frame rule never fired.
	if a.HTTPRules != 3 || a.DeadRules != 1 {
		t.Fatalf("list-a http=%d dead=%d, want 3, 1", a.HTTPRules, a.DeadRules)
	}
	if want := 1.0 / 3.0; a.DeadFraction != want {
		t.Fatalf("list-a dead fraction = %v, want %v", a.DeadFraction, want)
	}
	if len(a.Top) != 2 || a.Top[0].Hits != 3 || a.Top[0].Rule != "||ads.example.com^" {
		t.Fatalf("list-a top = %+v", a.Top)
	}
	if len(a.Hits) != 2 {
		t.Fatalf("list-a hit pairs = %+v", a.Hits)
	}
	var pairSum uint64
	for _, p := range a.Hits {
		pairSum += p[1]
	}
	if pairSum != a.TotalHits {
		t.Fatalf("list-a pair sum %d != total %d", pairSum, a.TotalHits)
	}

	// ?top bounds the ranking without touching the pairs.
	rec = do(t, s, "GET", "/admin/usage?top=1", "")
	dump = decodeUsage(t, rec.Body.Bytes())
	if len(dump.Lists[0].Top) != 1 || len(dump.Lists[0].Hits) != 2 {
		t.Fatalf("top=1 dump = %+v", dump.Lists[0])
	}
	if rec := do(t, s, "GET", "/admin/usage?top=x", ""); rec.Code != 400 {
		t.Fatalf("bad top param status = %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/admin/usage", ""); rec.Code != 405 {
		t.Fatalf("POST usage status = %d", rec.Code)
	}
}

// TestUsageDebugVarsAggregate checks the lazily merged /debug/vars
// summary agrees with the full dump.
func TestUsageDebugVarsAggregate(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "POST", "/v1/match", `{"url":"http://ads.example.com/banner.js","type":"script"}`)
	do(t, s, "POST", "/v1/match", `{"url":"http://tracker.example/t.js","type":"script","page_domain":"news.example"}`)

	rec := do(t, s, "GET", "/debug/vars", "")
	var vars struct {
		Usage usageAggregate `json:"adwars_usage"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("debug vars do not parse: %v", err)
	}
	if !vars.Usage.Enabled || vars.Usage.TotalHits != 2 {
		t.Fatalf("aggregate = %+v, want enabled with 2 hits", vars.Usage)
	}
	// 4 HTTP rules across both lists, 2 fired.
	if vars.Usage.HTTPRules != 4 || vars.Usage.DeadRules != 2 || vars.Usage.DeadFraction != 0.5 {
		t.Fatalf("aggregate = %+v, want 4 http / 2 dead / 0.5", vars.Usage)
	}
}

// TestUsageViewsAgree: after a fixed request stream over the two-list
// snapshot, /debug/vars' adwars_usage is the sum over lists of
// /admin/usage's http_rules, dead_rules, total_hits and probe geometry, its
// dead_fraction is derived from those sums, and the dump's own total_hits is
// the same sum.
func TestUsageViewsAgree(t *testing.T) {
	s := newTestServer(t, Config{})
	urls := []string{
		"http://ads.example.com/banner.js",
		"http://ads.example.com/allowed",
		"http://tracker.example/t.js",
		"http://clean.example/app.js",
	}
	for i, u := range urls {
		for k := 0; k <= i; k++ {
			do(t, s, "POST", "/v1/match", `{"url":"`+u+`","type":"script","page_domain":"news.example"}`)
		}
	}
	do(t, s, "POST", "/v1/match/batch", `{"requests":[{"url":"`+urls[0]+`"},{"url":"`+urls[2]+`","type":"script"}]}`)

	dump := decodeUsage(t, do(t, s, "GET", "/admin/usage", "").Body.Bytes())
	var vars struct {
		Usage usageAggregate `json:"adwars_usage"`
	}
	if err := json.Unmarshal(do(t, s, "GET", "/debug/vars", "").Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	want := usageAggregate{Enabled: true}
	for _, ul := range dump.Lists {
		want.HTTPRules += ul.HTTPRules
		want.DeadRules += ul.DeadRules
		want.TotalHits += ul.TotalHits
		g := &want.probeGeometry
		g.KeywordRules += ul.KeywordRules
		g.DomainRules += ul.DomainRules
		g.GenericRules += ul.GenericRules
		g.GuardedRules += ul.GuardedRules
		g.Probes += ul.Probes
		g.Candidates += ul.Candidates
	}
	want.DeadFraction = float64(want.DeadRules) / float64(want.HTTPRules)
	if vars.Usage != want {
		t.Errorf("/debug/vars adwars_usage = %+v\nsum of /admin/usage = %+v", vars.Usage, want)
	}
	if dump.TotalHits != want.TotalHits {
		t.Errorf("/admin/usage total_hits = %d, its lists sum to %d", dump.TotalHits, want.TotalHits)
	}
	if len(dump.Lists) != 2 || want.TotalHits == 0 || want.DeadRules == 0 || want.DeadRules == want.HTTPRules {
		t.Fatalf("the stream does not exercise both views: %+v", want)
	}
}

// TestUsageProbeGeometry: /admin/usage (per list) and /debug/vars (summed)
// say how a list's HTTP rules reach a probe — by keyword (guarded or not), by
// page domain, or as candidates of every request — and how many probes the
// list answered and how many candidates they verified: here the keyworded
// rule once (its run stands in its context in one of the two URLs that spell
// it), a page's rule once, the generic rule every time.
func TestUsageProbeGeometry(t *testing.T) {
	want := probeGeometry{KeywordRules: 1, DomainRules: 2, GenericRules: 1, GuardedRules: 1, Probes: 3, Candidates: 5}
	l, errs := abp.ParseAndBuild("geometry", strings.Join([]string{
		"||ads.example^",
		"/banner/ads.js$domain=x.example",
		"/banner/ads.js$domain=y.example",
		"*$image",
		"##.ad-banner",
	}, "\n"))
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	s := newServer(t, Config{})
	setLists(t, s, &abp.ListsSnapshot{Lists: []*abp.List{l}})
	for _, body := range []string{
		`{"url":"http://ads.example/x.js","type":"script"}`,
		`{"url":"http://ads-example.test/x.js","type":"script"}`,
		`{"url":"http://cdn.test/banner/ads.js","type":"image","page_domain":"x.example"}`,
	} {
		if rec := do(t, s, "POST", "/v1/match", body); rec.Code != http.StatusOK {
			t.Fatalf("match %s: status %d", body, rec.Code)
		}
	}
	var vars struct {
		Usage usageAggregate `json:"adwars_usage"`
	}
	if err := json.Unmarshal(do(t, s, "GET", "/debug/vars", "").Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	if vars.Usage.probeGeometry != want || !vars.Usage.Enabled {
		t.Errorf("/debug/vars says %+v, want %+v", vars.Usage, want)
	}
	dump := decodeUsage(t, do(t, s, "GET", "/admin/usage", "").Body.Bytes())
	if got := dump.Lists[0]; got.probeGeometry != want || got.HTTPRules != 4 {
		t.Errorf("/admin/usage says %+v of 4 HTTP rules, want %+v", got.probeGeometry, want)
	}
}

// TestServeTieredSnapshot: a snapshot the benchmark writes — CompileTiered
// copies through SaveListsSnapshotTiered — loads from disk and /v1/match
// answers from it as the server of the lists themselves does.
func TestServeTieredSnapshot(t *testing.T) {
	snap := testListsSnapshot(t)
	tiered := &abp.ListsSnapshot{Label: snap.Label}
	for _, l := range snap.Lists {
		tiered.Lists = append(tiered.Lists, l.CompileTiered(nil))
	}
	dir := t.TempDir()
	path := dir + "/lists.tiered.json"
	if err := abp.SaveListsSnapshotTiered(path, tiered); err != nil {
		t.Fatal(err)
	}
	ts := newServer(t, Config{ListsPath: path})
	if err := ts.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	plain := newTestServer(t, Config{})

	for _, body := range []string{
		`{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`,
		`{"url":"http://ads.example.com/allowed","type":"script","page_domain":"news.example"}`,
		`{"url":"http://cdn.example/adframe/x.html","type":"subdocument","page_domain":"news.example"}`,
		`{"url":"http://clean.example/app.js"}`,
	} {
		want := do(t, plain, "POST", "/v1/match", body)
		got := do(t, ts, "POST", "/v1/match", body)
		if got.Code != want.Code {
			t.Fatalf("tiered status %d != %d for %s", got.Code, want.Code, body)
		}
		// The snapshot envelopes legitimately differ (the disk-loaded server
		// has no model and a version); the verdict payload may not.
		var gotRes, wantRes matchResponse
		if err := json.Unmarshal(got.Body.Bytes(), &gotRes); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want.Body.Bytes(), &wantRes); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", gotRes.MatchResult) != fmt.Sprintf("%+v", wantRes.MatchResult) {
			t.Fatalf("tiered verdict diverges for %s:\n got: %+v\nwant: %+v",
				body, gotRes.MatchResult, wantRes.MatchResult)
		}
	}
}

// replayBody is a reusable request body: Reset rewinds it without
// allocating a new reader, so allocation measurements see only the
// handler's own work.
type replayBody struct{ strings.Reader }

func (r *replayBody) Close() error { return nil }

// nullResponseWriter absorbs the response with preallocated headers.
type nullResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nullResponseWriter) Header() http.Header { return w.h }
func (w *nullResponseWriter) WriteHeader(c int)   { w.status = c }
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// matchAllocRig assembles the reusable request/writer pair that measures
// the /v1/match handler's own allocations.
func matchAllocRig(s *Server, body string) (http.Handler, *nullResponseWriter, *http.Request, *replayBody) {
	return allocRig(s, "/v1/match", body)
}

// allocRig is matchAllocRig for any POST endpoint.
func allocRig(s *Server, path, body string) (http.Handler, *nullResponseWriter, *http.Request, *replayBody) {
	h := s.Handler()
	rb := &replayBody{}
	rb.Reset(body)
	req := httptest.NewRequest("POST", path, rb)
	w := &nullResponseWriter{h: make(http.Header, 4)}
	return h, w, req, rb
}

// The hot-path allocation gate: one fully served /v1/match request —
// routing, admission, the governor's level read and header, body read,
// decode, match, usage recording, the analytics event, JSON encode — must
// stay at or under 4 allocations. It makes one: the string the decoded
// query's three fields share (codec.go). The body is read into the
// scratch's buffer through its own LimitedReader, the Content-Type and
// level header are shared slices, and the response is appended to the
// scratch's output buffer. The other three are room for the router and the
// runtime to differ between Go releases; a regression in any pooled piece
// shows up here as a count jump, not a vague slowdown. Every row runs the
// one serving configuration with its analytics consumer stopped, so what is
// measured is the handler alone: recording into an undrained ring neither
// allocates nor blocks, full or not. The rows differ only in the state the
// request meets.

// TestServeMatchAllocs holds the server as New builds it: governor not
// started, so at L0 unpinned, and analytics rings with room.
func TestServeMatchAllocs(t *testing.T) {
	s := matchAllocServer(t)
	checkMatchAllocs(t, s, "as built")
}

// TestServeMatchAnalyticsAllocs holds a full analytics ring: a decision
// that finds no slot is dropped and counted, and the drop path fits the
// same budget as an accepted event.
func TestServeMatchAnalyticsAllocs(t *testing.T) {
	s := matchAllocServer(t)
	h, w, req, rb := matchAllocRig(s, matchBlockedBody)
	for i := 0; s.Analytics().CountersNow().Dropped == 0; i++ {
		if i == 1<<17 {
			t.Fatal("analytics rings never filled")
		}
		rb.Reset(matchBlockedBody)
		h.ServeHTTP(w, req)
	}
	before := s.Analytics().CountersNow().Dropped
	checkMatchAllocs(t, s, "with the rings full")
	if after := s.Analytics().CountersNow().Dropped; after-before < 200 {
		t.Fatalf("%d of the measured decisions dropped, want every one", after-before)
	}
}

// TestServeMatchDegradeAllocs holds a pinned governor: at L0, and at L2,
// the top rung, where classify and batches are shed and the match is L0's.
func TestServeMatchDegradeAllocs(t *testing.T) {
	for _, lvl := range []degrade.Level{degrade.L0, degrade.L2} {
		t.Run(fmt.Sprintf("level_%s", lvl), func(t *testing.T) {
			s := matchAllocServer(t)
			s.Degrade().Pin(lvl)
			checkMatchAllocs(t, s, "at "+lvl.String())
		})
	}
}

// matchAllocServer builds the gate's server and stops its analytics
// consumer.
func matchAllocServer(t *testing.T) *Server {
	t.Helper()
	if raceSrvEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	s := newTestServer(t, Config{Workers: 4, Queue: 64, QueueTimeout: time.Second})
	if err := s.CloseAnalytics(); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMatchAllocs measures one served /v1/match on s against the budget.
func checkMatchAllocs(t *testing.T, s *Server, state string) {
	t.Helper()
	h, w, req, rb := matchAllocRig(s, matchBlockedBody)
	allocs := testing.AllocsPerRun(200, func() {
		rb.Reset(matchBlockedBody)
		w.status = 0
		h.ServeHTTP(w, req)
	})
	if w.status != 200 {
		t.Fatalf("status = %d", w.status)
	}
	if allocs > 4 {
		t.Fatalf("/v1/match %s allocates %.1f/op, budget is 4", state, allocs)
	}
	t.Logf("/v1/match %s: %.1f allocs/op", state, allocs)
}

// TestMatchBatchArenaIsolation guards the scratch-arena trick: results in
// one batch share grow-only arenas, so every result must keep its own
// rules even after later queries grow the arena backing arrays.
func TestMatchBatchArenaIsolation(t *testing.T) {
	s := newTestServer(t, Config{})
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		if i%2 == 0 {
			sb.WriteString(`{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`)
		} else {
			fmt.Fprintf(&sb, `{"url":"http://clean%d.example/app.js"}`, i)
		}
	}
	sb.WriteString(`]}`)
	rec := do(t, s, "POST", "/v1/match/batch", sb.String())
	if rec.Code != 200 {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body.Bytes())
	}
	var out matchBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	for i, res := range out.Results {
		if i%2 == 0 {
			if !res.Blocked || res.Lists[0].Rule != "||ads.example.com^" {
				t.Fatalf("result %d corrupted: %+v", i, res)
			}
			if len(res.Lists[0].MatchedRules) != 1 || res.Lists[0].MatchedRules[0] != "||ads.example.com^" {
				t.Fatalf("result %d matched rules corrupted: %+v", i, res.Lists[0].MatchedRules)
			}
		} else if res.Decision != "no-match" {
			t.Fatalf("result %d should be no-match: %+v", i, res)
		}
	}
}
