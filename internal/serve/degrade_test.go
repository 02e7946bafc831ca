package serve

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"adwars/internal/analytics"
	"adwars/internal/chassis"
	"adwars/internal/degrade"
)

// degradeServer builds a fixture server with the overload governor
// enabled but not started: tests move the ladder with Pin or Tick, so
// no ticker goroutine runs and the goroutine-leak checks stay quiet.
func degradeServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Degrade == nil {
		cfg.Degrade = &degrade.Config{}
	}
	return newTestServer(t, cfg)
}

const matchBlockedBody = `{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`

func TestDegradeHeaderStampedPerLevel(t *testing.T) {
	s := degradeServer(t, Config{})
	for lvl := degrade.L0; lvl <= degrade.L4; lvl++ {
		s.Degrade().Pin(lvl)
		rec := do(t, s, "POST", "/v1/match", matchBlockedBody)
		if rec.Code != 200 {
			t.Fatalf("level %s: /v1/match status %d", lvl, rec.Code)
		}
		if got := rec.Header().Get(chassis.DegradeHeader); got != lvl.String() {
			t.Fatalf("level %s: %s header = %q", lvl, chassis.DegradeHeader, got)
		}
	}

	// Without a governor there is no header at all: the seed's response
	// shape is untouched.
	plain := newTestServer(t, Config{})
	rec := do(t, plain, "POST", "/v1/match", matchBlockedBody)
	if vs, ok := rec.Header()[chassis.DegradeHeader]; ok {
		t.Fatalf("governor-less server stamped %s: %v", chassis.DegradeHeader, vs)
	}
}

// TestDegradeL0ByteIdentical pins the wire contract the brownout scenario
// leans on: at L0 a governed server's /v1/match body is byte-identical
// to a governor-less server's, so post-recovery probes can be diffed
// against an unloaded control.
func TestDegradeL0ByteIdentical(t *testing.T) {
	gov := degradeServer(t, Config{})
	plain := newTestServer(t, Config{})
	for _, body := range []string{
		matchBlockedBody,
		`{"url":"http://ads.example.com/allowed","type":"script"}`,
		`{"url":"http://clean.example/app.js"}`,
	} {
		got := do(t, gov, "POST", "/v1/match", body)
		want := do(t, plain, "POST", "/v1/match", body)
		if got.Body.String() != want.Body.String() {
			t.Fatalf("L0 body diverges for %s:\n got: %s\nwant: %s",
				body, got.Body.String(), want.Body.String())
		}
	}
}

// TestDegradeL2HotOnlyAnnotation: at L2 the match answer is computed
// from the hot tier only and says so. The fixture lists are untiered
// (everything hot), so the verdicts themselves must not move.
func TestDegradeL2HotOnlyAnnotation(t *testing.T) {
	s := degradeServer(t, Config{})
	s.Degrade().Pin(degrade.L2)
	rec := do(t, s, "POST", "/v1/match", matchBlockedBody)
	if rec.Code != 200 {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var res matchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Degraded != "hot-only" {
		t.Fatalf("degraded = %q, want hot-only", res.Degraded)
	}
	if !res.Blocked {
		t.Fatalf("untiered fixture verdict moved under hot-only: %+v", res.MatchResult)
	}

	// Below L2 the annotation disappears again.
	s.Degrade().Pin(degrade.L1)
	rec = do(t, s, "POST", "/v1/match", matchBlockedBody)
	if strings.Contains(rec.Body.String(), "degraded") {
		t.Fatalf("L1 body still annotated: %s", rec.Body.String())
	}
}

// TestDegradeLadderSheds: L3 drops the classify plane, L4 additionally
// drops match batches; single matches survive to L4. Every shed is a
// structured 429 with a jittered Retry-After — never a 5xx.
func TestDegradeLadderSheds(t *testing.T) {
	s := degradeServer(t, Config{})
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
		"L2": {},
		"L3": {"classify": true, "classify_batch": true},
		"L4": {"classify": true, "classify_batch": true, "match_batch": true},
	}
	for _, lvlName := range []string{"L2", "L3", "L4"} {
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
		t.Fatalf("degrade_shed = %d, want 5 (2 at L3 + 3 at L4)", got)
	}
}

// jsonQuote JSON-quotes a script for embedding in a batch body.
func jsonQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func TestDegradeAdminEndpoint(t *testing.T) {
	s := degradeServer(t, Config{})

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

	plain := newTestServer(t, Config{})
	if rec := do(t, plain, "GET", "/admin/degrade", ""); rec.Code != 404 ||
		!strings.Contains(rec.Body.String(), "degrade_disabled") {
		t.Fatalf("disabled server: status %d body %s, want 404 degrade_disabled",
			rec.Code, rec.Body.String())
	}
}

func TestDegradeDebugVars(t *testing.T) {
	s := degradeServer(t, Config{})
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

	plain := newTestServer(t, Config{})
	rec = do(t, plain, "GET", "/debug/vars", "")
	if !strings.Contains(rec.Body.String(), `"adwars_degrade": {"enabled":false}`) {
		t.Fatalf("disabled tree missing from debug vars: %s", rec.Body.String())
	}
}

// TestDegradeAnalyticsOverride: crossing L1 forces analytics sampling
// down to the brownout rate; returning to L0 restores the configured
// rate. The transition hook fires on pins exactly as on ladder steps.
func TestDegradeAnalyticsOverride(t *testing.T) {
	s := degradeServer(t, Config{
		Analytics: &analytics.Config{SpillDir: t.TempDir()},
	})
	t.Cleanup(func() { s.CloseAnalytics() }) //nolint:errcheck
	if s.AnalyticsError() != nil {
		t.Fatal(s.AnalyticsError())
	}
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
	s := degradeServer(t, Config{Workers: 2, Queue: 8})
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

// TestServeMatchDegradeAllocs extends the hot-path allocation gate to a
// governed server: reading the level, stamping the header, and the
// hot-only probe at L2 must all fit in the same 4-alloc budget as the
// ungoverned path.
func TestServeMatchDegradeAllocs(t *testing.T) {
	if raceSrvEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	for _, lvl := range []degrade.Level{degrade.L0, degrade.L2} {
		t.Run(fmt.Sprintf("level_%s", lvl), func(t *testing.T) {
			s := degradeServer(t, Config{Workers: 4, Queue: 64, QueueTimeout: time.Second})
			s.Degrade().Pin(lvl)
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
				t.Fatalf("/v1/match at %s allocates %.1f/op, budget is 4", lvl, allocs)
			}
			t.Logf("/v1/match at %s: %.1f allocs/op", lvl, allocs)
		})
	}
}
