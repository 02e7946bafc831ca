package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"adwars/internal/abp"
	"adwars/internal/analytics"
	"adwars/internal/artifact"
	"adwars/internal/chassis"
)

// TestCompiledSnapshotServesAndRejectsDamage: the serving layer attaches
// the automata a lists snapshot carries and answers /v1/match identically
// to the same lists compiled in this process; a damaged automaton section —
// resealed under a fresh trailer so only the section CRC can catch it —
// must be refused at /admin/reload with the last-good snapshot kept
// serving.
func TestCompiledSnapshotServesAndRejectsDamage(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := t.TempDir()
	modelPath, listsPath := writeSnapshotFiles(t, dir)
	s := newServer(t, Config{ModelPath: modelPath, ListsPath: listsPath})
	if err := s.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	healthz := func() (h chassis.Health) {
		code, body := get("/healthz")
		if code != http.StatusOK || json.Unmarshal([]byte(body), &h) != nil {
			t.Fatalf("healthz = %d %s", code, body)
		}
		return h
	}
	healthBefore := healthz()
	if healthBefore.ListsVersion == "" {
		t.Fatalf("healthz = %+v, want a versioned snapshot", healthBefore)
	}

	query := `{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`
	match := func() string {
		resp, err := ts.Client().Post(ts.URL+"/v1/match", "application/json", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match status %d", resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	before := match()

	// The same lists compiled here, never written, must answer
	// byte-identically. Compare decisions only: the snapshot metadata block
	// legitimately differs (lists installed without a file carry no
	// artifact version).
	setLists(t, s, testListsSnapshot(t))
	decisions := func(body string) string {
		if i := strings.Index(body, `,"snapshot":`); i >= 0 {
			return body[:i]
		}
		return body
	}
	if got := match(); decisions(got) != decisions(before) {
		t.Fatalf("built lists answer differently:\n%s\nvs\n%s", got, before)
	}
	if err := s.ReloadSnapshots(); err != nil { // back to the file
		t.Fatal(err)
	}

	// Damage the automaton section and reseal: the outer trailer is valid
	// again, so only the per-section CRC stands between the damage and the
	// match path.
	good, err := os.ReadFile(listsPath)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := artifact.OpenVersion(good)
	if err != nil {
		t.Fatalf("OpenVersion: %v", err)
	}
	bad := append([]byte(nil), payload...)
	mark := strings.Index(string(bad), artifact.SectionPrefix+"v1 name=automaton.0 ")
	hdrEnd := mark + strings.IndexByte(string(bad[mark:]), '\n') + 1
	bad[hdrEnd+16+8] ^= 0x01
	if err := os.WriteFile(listsPath, artifact.Seal(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload of damaged section: status %d (%s), want 400", resp.StatusCode, body)
	}
	if got := s.met.ReloadRejected.Load(); got != 1 {
		t.Errorf("reload_rejected = %d, want 1", got)
	}
	if after := match(); after != before {
		t.Fatalf("served answer changed after rejected reload:\n%s\nvs\n%s", after, before)
	}
	if h := healthz(); h.ListsVersion != healthBefore.ListsVersion {
		t.Fatalf("healthz after rejected reload: lists_version %s, want last-good %s", h.ListsVersion, healthBefore.ListsVersion)
	}

	// Restoring the good file makes the next reload succeed.
	if err := os.WriteFile(listsPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadSnapshots(); err != nil {
		t.Fatalf("reload after restore: %v", err)
	}
	if after := match(); after != before {
		t.Fatalf("answer changed after restore:\n%s\nvs\n%s", after, before)
	}
}

// TestReloadServesFromOneBuffer: a reload reads the file once and serves
// from that buffer — every automaton of the snapshot lies inside the raw
// bytes the state retains (the ones GET /admin/snapshot
// returns), 4-aligned so the u32 views are views and not copies, and so does
// the text of every rule, whether the bytes came from disk or from a push.
// The version the state reports is the file's.
func TestReloadServesFromOneBuffer(t *testing.T) {
	checkGoroutineLeaks(t)
	var lines []string
	for i := 0; i < 3000; i++ {
		lines = append(lines, fmt.Sprintf("||host%d.example/path%d/unit.js", i, i%7))
	}
	big, errs := abp.ParseAndBuild("big", strings.Join(lines, "\n"))
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	snap := testListsSnapshot(t)
	snap.Lists = append(snap.Lists, big)

	within := func(what string, region, raw []byte) uintptr {
		t.Helper()
		if len(region) == 0 {
			t.Fatalf("%s: empty region", what)
		}
		lo, hi := uintptr(unsafe.Pointer(&raw[0])), uintptr(unsafe.Pointer(&raw[len(raw)-1]))
		first, last := uintptr(unsafe.Pointer(&region[0])), uintptr(unsafe.Pointer(&region[len(region)-1]))
		if first < lo || last > hi {
			t.Errorf("%s lives outside the retained snapshot bytes (a copy was made)", what)
		}
		return first
	}
	inside := func(what string, region, raw []byte) {
		t.Helper()
		if first := within(what+": automaton", region, raw); first%4 != 0 {
			t.Errorf("%s: automaton at %#x is not 4-aligned", what, first)
		}
	}
	check := func(name string, s *Server) {
		t.Helper()
		st := s.lists.Load()
		if want, err := artifact.Version(st.raw); err != nil || st.version != want {
			t.Errorf("%s: state version %q, artifact.Version of its bytes %q (%v)", name, st.version, want, err)
		}
		for _, l := range st.snap.Lists {
			inside(name+"/"+l.Name, l.AutomatonBytes(), st.raw)
			for _, r := range l.Rules() {
				within(name+"/"+l.Name+": rule "+r.Raw, unsafe.Slice(unsafe.StringData(r.Raw), len(r.Raw)), st.raw)
			}
		}
	}

	dir := t.TempDir()
	modelPath, listsPath := writeSnapshotFiles(t, dir)
	s := newServer(t, Config{ModelPath: modelPath, ListsPath: listsPath})
	if err := abp.SaveListsSnapshot(listsPath, snap); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	check("disk", s)

	art, err := abp.MarshalListsSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "POST", "/admin/snapshot/lists", string(art)); rec.Code != 200 {
		t.Fatalf("push status %d: %s", rec.Code, rec.Body)
	}
	check("push", s)
}

// TestReloadReleasesPreviousBuffer: the rules of a served snapshot alias the
// buffer its file was read into, so whatever keeps a rule's text keeps five
// megabytes of the 70 k list. With decisions recorded — the analytics
// events carry the winning rule's text through the ring — a second reload
// and a drain leave nothing holding the first buffer: the ring clears a slot
// as it pops it and the aggregator keys its rows by a copy. Two collections
// (the handlers' pooled scratch lives through one) run its finalizer.
func TestReloadReleasesPreviousBuffer(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := t.TempDir()
	modelPath, listsPath := writeSnapshotFiles(t, dir)
	s := newServer(t, Config{ModelPath: modelPath, ListsPath: listsPath})
	if err := s.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	func() {
		raw := s.lists.Load().raw
		rule := s.lists.Load().snap.Lists[0].Rules()[0].Raw
		within := uintptr(unsafe.Pointer(unsafe.StringData(rule))) - uintptr(unsafe.Pointer(&raw[0]))
		if within >= uintptr(len(raw)) {
			t.Fatal("the served rules do not alias the retained buffer: the test exercises nothing")
		}
		runtime.SetFinalizer(&raw[0], func(*byte) { close(released) })
	}()

	const blocked = 40
	for i := 0; i < blocked; i++ {
		rec := do(t, s, "POST", "/v1/match",
			`{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`)
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"blocked"`) {
			t.Fatalf("match: %d %s", rec.Code, rec.Body)
		}
	}
	if err := s.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	snap := waitForTotals(t, s, map[string]uint64{"match/blocked": blocked})
	if rows := analytics.RowsFromSnapshot(&snap); snap.Counters.Dropped != 0 || len(rows) == 0 || rows[0].Rule == "" {
		t.Fatalf("analytics: %d dropped, rows %v; want the winning rule's text recorded", snap.Counters.Dropped, rows)
	}
	for i := 0; i < 2; i++ {
		runtime.GC()
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("the first snapshot's buffer is still reachable after a reload, a drain and two collections")
	}
}
