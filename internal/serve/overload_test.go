package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"adwars/internal/abp"
)

const matchBlockedBody = `{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`

// jsonQuote JSON-quotes a script for embedding in a batch body.
func jsonQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// fillAdmission takes every worker slot of s and fills its queue, as a
// replica overdriven past its queue stands, so that every request it
// admits from here on is shed at once; cleanup gives the slots back.
func fillAdmission(t testing.TB, s *Server) {
	t.Helper()
	for range cap(s.adm.slots) {
		s.adm.slots <- struct{}{}
	}
	s.adm.queued.Add(s.adm.maxQueue)
	t.Cleanup(func() {
		s.adm.queued.Add(-s.adm.maxQueue)
		for range cap(s.adm.slots) {
			<-s.adm.slots
		}
	})
}

// TestTieredListsAnswerAsFlat: lists written the way the benchmark writes
// its tiered ones — CompileTiered with nothing kept, through
// SaveListsSnapshotTiered — answer every /v1/match and /v1/match/batch
// byte for byte as the same lists written flat do. A build with a hot tier
// would have served them from a hot automaton of exceptions and
// keyword-less rules alone, its keyworded blocks reading as no-match.
func TestTieredListsAnswerAsFlat(t *testing.T) {
	boot := func(tiered bool) *Server {
		snap := testListsSnapshot(t)
		path := t.TempDir() + "/lists.json"
		save := abp.SaveListsSnapshot
		if tiered {
			for i, l := range snap.Lists {
				snap.Lists[i] = l.CompileTiered(nil)
			}
			save = abp.SaveListsSnapshotTiered
		}
		if err := save(path, snap); err != nil {
			t.Fatal(err)
		}
		s := newServer(t, Config{ListsPath: path})
		if err := s.ReloadSnapshots(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	flat, tiered := boot(false), boot(true)
	bodies := []string{
		matchBlockedBody,
		`{"url":"http://ads.example.com/allowed","type":"script","page_domain":"news.example"}`,
		`{"url":"http://cdn.example/adframe/x.html","type":"subdocument","page_domain":"news.example"}`,
		`{"url":"http://baitserver.example/ads.js","type":"script","page_domain":"news.example"}`,
		`{"url":"http://clean.example/app.js"}`,
	}
	batch := `{"requests":[` + strings.Join(bodies, ",") + `]}`
	for _, body := range append(bodies, batch) {
		path := "/v1/match"
		if body == batch {
			path += "/batch"
		}
		want, got := do(t, flat, "POST", path, body), do(t, tiered, "POST", path, body)
		if want.Code != 200 || got.Code != 200 {
			t.Fatalf("%s %s: status %d flat, %d tiered", path, body, want.Code, got.Code)
		}
		if got.Body.String() != want.Body.String() {
			t.Errorf("%s %s:\ntiered: %s\n  flat: %s", path, body, got.Body.String(), want.Body.String())
		}
	}
	if first := do(t, flat, "POST", "/v1/match", matchBlockedBody).Body.String(); !strings.Contains(first, `"blocked":true`) {
		t.Fatalf("the flat lists do not block %s: %s", matchBlockedBody, first)
	}
}

// TestEveryMatchIsRecorded: nothing samples analytics. n matches move the
// analytics totals by exactly n, with no decision dropped.
func TestEveryMatchIsRecorded(t *testing.T) {
	s := newTestServer(t, Config{})
	const n = 200
	for i := 0; i < n; i++ {
		if rec := do(t, s, "POST", "/v1/match", matchBlockedBody); rec.Code != 200 {
			t.Fatalf("/v1/match status %d", rec.Code)
		}
	}
	snap := waitForTotals(t, s, map[string]uint64{"match/blocked": n})
	if snap.Counters.Dropped != 0 || snap.Counters.Recorded != n {
		t.Fatalf("recorded %d, dropped %d after %d decisions", snap.Counters.Recorded, snap.Counters.Dropped, n)
	}
}

// TestShedRetryAfterSpread: a replica whose one worker is held and whose
// queue is full sheds every request with a structured 429, and the
// Retry-After of 300 sheds takes each of 1, 2 and 3 seconds, so clients
// shed together do not re-arrive together.
func TestShedRetryAfterSpread(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Queue: 1})
	fillAdmission(t, s)
	seen := map[string]int{}
	for i := 0; i < 300; i++ {
		rec := do(t, s, "POST", "/v1/match", matchBlockedBody)
		if rec.Code != http.StatusTooManyRequests || !strings.Contains(rec.Body.String(), `"shed"`) {
			t.Fatalf("shed %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		seen[rec.Header().Get("Retry-After")]++
	}
	if len(seen) != 3 || seen["1"] == 0 || seen["2"] == 0 || seen["3"] == 0 {
		t.Fatalf("Retry-After over 300 sheds: %v, want each of 1, 2 and 3", seen)
	}
	if got := s.met.endpoints[epMatch].Shed.Load(); got != 300 {
		t.Fatalf("shed counter = %d, want 300", got)
	}
}

// shedAllocBudget is what a shed /v1/match allocated while its Retry-After
// was drawn from a splitmix64 counter of the server's own, measured on a
// warm handler.
const shedAllocBudget = 4

// TestShedAllocs holds the 429 path to that: drawing the Retry-After from
// math/rand/v2 allocates nothing.
func TestShedAllocs(t *testing.T) {
	s := matchAllocServer(t)
	fillAdmission(t, s)
	h, w, req, rb := matchAllocRig(s, matchBlockedBody)
	allocs := testing.AllocsPerRun(200, func() {
		rb.Reset(matchBlockedBody)
		w.status = 0
		h.ServeHTTP(w, req)
	})
	if w.status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", w.status)
	}
	if allocs > shedAllocBudget {
		t.Fatalf("a shed /v1/match allocates %.1f/op, budget is %d", allocs, shedAllocBudget)
	}
	t.Logf("a shed /v1/match: %.1f allocs/op", allocs)
}
