package serve

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"adwars/internal/abp"
	"adwars/internal/chassis"
	"adwars/internal/degrade"
)

// The fixture servers here are never Served, so their governors' tickers
// never start: tests move the ladder with Pin or Tick.

const matchBlockedBody = `{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`

func TestDegradeHeaderStampedPerLevel(t *testing.T) {
	s := newTestServer(t, Config{})
	for lvl := degrade.L0; lvl <= degrade.L2; lvl++ {
		s.Degrade().Pin(lvl)
		rec := do(t, s, "POST", "/v1/match", matchBlockedBody)
		if rec.Code != 200 {
			t.Fatalf("level %s: /v1/match status %d", lvl, rec.Code)
		}
		if got := rec.Header().Get(chassis.DegradeHeader); got != lvl.String() {
			t.Fatalf("level %s: %s header = %q", lvl, chassis.DegradeHeader, got)
		}
	}
}

// TestDegradeL0ByteIdentical pins the wire contract the brownout scenario
// leans on: a server back at L0 after a brownout answers /v1/match
// byte-identically to one that never left L0, so post-recovery probes can
// be diffed against an unloaded control.
func TestDegradeL0ByteIdentical(t *testing.T) {
	recovered := newTestServer(t, Config{})
	recovered.Degrade().Pin(degrade.L1)
	recovered.Degrade().Pin(degrade.L0)
	fresh := newTestServer(t, Config{})
	for _, body := range []string{
		matchBlockedBody,
		`{"url":"http://ads.example.com/allowed","type":"script"}`,
		`{"url":"http://clean.example/app.js"}`,
	} {
		got := do(t, recovered, "POST", "/v1/match", body)
		want := do(t, fresh, "POST", "/v1/match", body)
		if got.Body.String() != want.Body.String() {
			t.Fatalf("L0 body diverges for %s:\n got: %s\nwant: %s",
				body, got.Body.String(), want.Body.String())
		}
	}
}

// TestDegradeNeverChangesAVerdict is the ladder's invariant: no level
// changes what a match answers. A replica serves lists written the way the
// benchmark writes its tiered ones — CompileTiered with nothing kept, through
// SaveListsSnapshotTiered — which a build with a hot tier would have served
// from a hot automaton of exceptions and keyword-less rules alone, its
// keyworded blocks reading as no-match. Pinned at each of L0–L2, every
// /v1/match body is L0's byte for byte, and so is every /v1/match/batch body
// below L2, which sheds batches.
func TestDegradeNeverChangesAVerdict(t *testing.T) {
	snap := testListsSnapshot(t)
	for i, l := range snap.Lists {
		snap.Lists[i] = l.CompileTiered(nil)
	}
	path := t.TempDir() + "/lists.json"
	if err := abp.SaveListsSnapshotTiered(path, snap); err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Config{ListsPath: path})
	if err := s.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	bodies := []string{
		matchBlockedBody,
		`{"url":"http://ads.example.com/allowed","type":"script","page_domain":"news.example"}`,
		`{"url":"http://cdn.example/adframe/x.html","type":"subdocument","page_domain":"news.example"}`,
		`{"url":"http://baitserver.example/ads.js","type":"script","page_domain":"news.example"}`,
		`{"url":"http://clean.example/app.js"}`,
	}
	batch := `{"requests":[` + strings.Join(bodies, ",") + `]}`
	var want []string
	for lvl := degrade.L0; lvl <= degrade.L2; lvl++ {
		s.Degrade().Pin(lvl)
		var got []string
		for _, body := range append(bodies, batch) {
			path := "/v1/match"
			if body == batch {
				path += "/batch"
			}
			rec := do(t, s, "POST", path, body)
			if body == batch && lvl == degrade.L2 {
				if rec.Code != 429 {
					t.Fatalf("%s: batch status %d, want 429", lvl, rec.Code)
				}
				continue
			}
			if rec.Code != 200 {
				t.Fatalf("%s: %s status %d: %s", lvl, path, rec.Code, rec.Body.String())
			}
			got = append(got, rec.Body.String())
		}
		if lvl == degrade.L0 {
			want = got
			if !strings.Contains(want[0], `"blocked":true`) {
				t.Fatalf("L0 does not block %s: %s", matchBlockedBody, want[0])
			}
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s body %d differs from L0's:\n got: %s\nwant: %s", lvl, i, got[i], want[i])
			}
		}
	}
}

// TestDegradeLadderSheds: L1 drops the classify plane, L2 additionally
// drops match batches; single matches survive to L2. Every shed is a
// structured 429 with a jittered Retry-After — never a 5xx.
func TestDegradeLadderSheds(t *testing.T) {
	s := newTestServer(t, Config{})
	classify := testAntiScript
	batch := `{"requests":[` + matchBlockedBody + `]}`

	type probe struct {
		path, body string
	}
	probes := map[string]probe{
		"classify":       {"/v1/classify", classify},
		"classify_batch": {"/v1/classify/batch", `{"scripts":[` + jsonQuote(classify) + `]}`},
		"match_batch":    {"/v1/match/batch", batch},
		"match":          {"/v1/match", matchBlockedBody},
	}
	shedAt := map[string]map[string]bool{
		"L0": {},
		"L1": {"classify": true, "classify_batch": true},
		"L2": {"classify": true, "classify_batch": true, "match_batch": true},
	}
	for _, lvlName := range []string{"L0", "L1", "L2"} {
		lvl, _ := parseDegradeLevel(lvlName)
		s.Degrade().Pin(lvl)
		for name, p := range probes {
			rec := do(t, s, "POST", p.path, p.body)
			if shedAt[lvlName][name] {
				if rec.Code != 429 {
					t.Fatalf("%s at %s: status %d, want 429: %s", name, lvlName, rec.Code, rec.Body.String())
				}
				if !strings.Contains(rec.Body.String(), `"degraded"`) {
					t.Fatalf("%s at %s: body lacks degraded code: %s", name, lvlName, rec.Body.String())
				}
				ra := rec.Header().Get("Retry-After")
				if ra != "1" && ra != "2" && ra != "3" {
					t.Fatalf("%s at %s: Retry-After = %q, want jittered 1..3", name, lvlName, ra)
				}
			} else if rec.Code != 200 {
				t.Fatalf("%s at %s: status %d, want 200: %s", name, lvlName, rec.Code, rec.Body.String())
			}
		}
	}
	if got := s.met.DegradeShed.Load(); got != 5 {
		t.Fatalf("degrade_shed = %d, want 5 (2 at L1 + 3 at L2)", got)
	}
}

// jsonQuote JSON-quotes a script for embedding in a batch body.
func jsonQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func TestDegradeAdminEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})

	rec := do(t, s, "GET", "/admin/degrade", "")
	var snap degrade.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	if snap.Level != "L0" || snap.Pinned {
		t.Fatalf("initial snapshot = %+v, want unpinned L0", snap)
	}

	rec = do(t, s, "POST", "/admin/degrade?pin=L2", "")
	if rec.Code != 200 {
		t.Fatalf("pin status = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Level != "L2" || !snap.Pinned || snap.PinnedLevel != 2 {
		t.Fatalf("pinned snapshot = %+v, want pinned L2", snap)
	}
	if got := s.Degrade().Level(); got != degrade.L2 {
		t.Fatalf("governor level = %s after pin", got)
	}

	rec = do(t, s, "POST", "/admin/degrade?unpin", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Pinned {
		t.Fatalf("still pinned after unpin: %+v", snap)
	}

	for _, bad := range []string{"L3", "L9"} {
		if rec := do(t, s, "POST", "/admin/degrade?pin="+bad, ""); rec.Code != 400 {
			t.Fatalf("pin %s: status %d, want 400", bad, rec.Code)
		}
	}
	if rec := do(t, s, "POST", "/admin/degrade", ""); rec.Code != 400 {
		t.Fatalf("argless POST: status %d, want 400", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/admin/degrade", ""); rec.Code != 405 {
		t.Fatalf("DELETE: status %d, want 405", rec.Code)
	}
}

func TestDegradeDebugVars(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Degrade().Pin(degrade.L2)
	rec := do(t, s, "GET", "/debug/vars", "")
	var vars struct {
		Degrade degrade.Snapshot `json:"adwars_degrade"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("debug vars do not parse: %v", err)
	}
	if vars.Degrade.Level != "L2" || vars.Degrade.Transitions != 1 {
		t.Fatalf("adwars_degrade = %+v, want L2 after one transition", vars.Degrade)
	}
}

// TestDegradeKeepsEveryDecision: no level samples analytics. Pinned at
// each level, which all still answer /v1/match, n requests move the
// analytics totals by exactly n, with no decision dropped.
func TestDegradeKeepsEveryDecision(t *testing.T) {
	s := newTestServer(t, Config{})
	const n = 200
	want := uint64(0)
	for lvl := degrade.L0; lvl <= degrade.L2; lvl++ {
		s.Degrade().Pin(lvl)
		for i := 0; i < n; i++ {
			if rec := do(t, s, "POST", "/v1/match", matchBlockedBody); rec.Code != 200 {
				t.Fatalf("%s: /v1/match status %d", lvl, rec.Code)
			}
		}
		want += n
		snap := waitForTotals(t, s, map[string]uint64{"match/blocked": want})
		if snap.Counters.Dropped != 0 || snap.Counters.Recorded != want {
			t.Fatalf("%s: recorded %d, dropped %d after %d decisions", lvl, snap.Counters.Recorded, snap.Counters.Dropped, want)
		}
	}
}

// TestDegradeSourceWindowedSignals drives the wired pressure probe
// through the governor and proves the signals are windowed: pressure
// observed during one tick does not haunt the next.
func TestDegradeSourceWindowedSignals(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, Queue: 8})
	src := s.degradeSource()

	// Quiet server: no pressure.
	sig := src()
	if sig.QueueDepth != 0 || sig.MatchP99Ns != 0 || sig.DropRate != 0 {
		t.Fatalf("quiet signals = %+v, want zero", sig)
	}
	if sig.QueueLimit != 8 {
		t.Fatalf("queue limit = %d, want 8", sig.QueueLimit)
	}

	// Slow traffic shows up in the next window...
	s.met.endpoints[epMatch].Latency.Observe(50 * time.Millisecond)
	if sig = src(); sig.MatchP99Ns < (50 * time.Millisecond).Nanoseconds() {
		t.Fatalf("windowed p99 = %dns, want >= 50ms", sig.MatchP99Ns)
	}
	// ...and is forgotten in the one after: cumulative counters would
	// keep the ladder stuck at its peak forever.
	if sig = src(); sig.MatchP99Ns != 0 {
		t.Fatalf("stale p99 leaked into the next window: %dns", sig.MatchP99Ns)
	}
}
