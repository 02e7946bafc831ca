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
	for lvl := degrade.L0; lvl <= degrade.L3; lvl++ {
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
	recovered.Degrade().Pin(degrade.L2)
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
// from a hot automaton of exceptions and keyword-less rules alone at L2, its
// keyworded blocks reading as no-match. Pinned at each of L0–L3, every
// /v1/match body is L0's byte for byte, and so is every /v1/match/batch body
// below L3, which sheds batches.
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
	for lvl := degrade.L0; lvl <= degrade.L3; lvl++ {
		s.Degrade().Pin(lvl)
		var got []string
		for _, body := range append(bodies, batch) {
			path := "/v1/match"
			if body == batch {
				path += "/batch"
			}
			rec := do(t, s, "POST", path, body)
			if body == batch && lvl == degrade.L3 {
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

// TestDegradeLadderSheds: L2 drops the classify plane, L3 additionally
// drops match batches; single matches survive to L3. Every shed is a
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
		"L1": {},
		"L2": {"classify": true, "classify_batch": true},
		"L3": {"classify": true, "classify_batch": true, "match_batch": true},
	}
	for _, lvlName := range []string{"L1", "L2", "L3"} {
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
		t.Fatalf("degrade_shed = %d, want 5 (2 at L2 + 3 at L3)", got)
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

	rec = do(t, s, "POST", "/admin/degrade?pin=L3", "")
	if rec.Code != 200 {
		t.Fatalf("pin status = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Level != "L3" || !snap.Pinned || snap.PinnedLevel != 3 {
		t.Fatalf("pinned snapshot = %+v, want pinned L3", snap)
	}
	if got := s.Degrade().Level(); got != degrade.L3 {
		t.Fatalf("governor level = %s after pin", got)
	}

	rec = do(t, s, "POST", "/admin/degrade?unpin", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Pinned {
		t.Fatalf("still pinned after unpin: %+v", snap)
	}

	if rec := do(t, s, "POST", "/admin/degrade?pin=L9", ""); rec.Code != 400 {
		t.Fatalf("bad pin level: status %d, want 400", rec.Code)
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

// TestDegradeAnalyticsOverride: crossing L1 forces analytics sampling
// down to the brownout rate; returning to L0 records every decision
// again. The transition hook fires on pins exactly as on ladder steps.
func TestDegradeAnalyticsOverride(t *testing.T) {
	s := newTestServer(t, Config{})
	if got := s.Analytics().CountersNow().EffectiveRate; got != 1 {
		t.Fatalf("initial effective rate = %v, want 1", got)
	}
	s.Degrade().Pin(degrade.L2)
	if got := s.Analytics().CountersNow().EffectiveRate; got != degradeSampleRate {
		t.Fatalf("effective rate at L2 = %v, want %v", got, degradeSampleRate)
	}
	// L2 → L1 stays above the threshold: the override must hold.
	s.Degrade().Pin(degrade.L1)
	if got := s.Analytics().CountersNow().EffectiveRate; got != degradeSampleRate {
		t.Fatalf("effective rate at L1 = %v, want %v", got, degradeSampleRate)
	}
	s.Degrade().Pin(degrade.L0)
	if got := s.Analytics().CountersNow().EffectiveRate; got != 1 {
		t.Fatalf("effective rate back at L0 = %v, want 1", got)
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
