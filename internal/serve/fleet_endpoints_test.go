package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adwars/internal/abp"
	"adwars/internal/artifact"
	"adwars/internal/chassis"
)

// listsArtifact renders the fixture lists snapshot (with the given label)
// as sealed wire bytes — what the control plane pushes.
func listsArtifact(t *testing.T, label string) []byte {
	t.Helper()
	snap := testListsSnapshot(t)
	snap.Label = label
	data, err := abp.MarshalListsSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func decodeHealth(t *testing.T, body []byte) chassis.Health {
	t.Helper()
	var h chassis.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("health body %q: %v", body, err)
	}
	return h
}

func TestReadyzDrainFlip(t *testing.T) {
	s := newTestServer(t, Config{ReplicaID: "r1"})
	rec := do(t, s, "GET", "/readyz", "")
	if rec.Code != 200 {
		t.Fatalf("readyz = %d, want 200", rec.Code)
	}
	if got := rec.Header().Get("X-Adwars-Replica"); got != "r1" {
		t.Errorf("X-Adwars-Replica = %q, want r1", got)
	}
	h := decodeHealth(t, rec.Body.Bytes())
	if !h.Ready || h.Replica != "r1" {
		t.Errorf("health = %+v, want ready replica r1", h)
	}

	s.StartDrain()
	rec = do(t, s, "GET", "/readyz", "")
	if rec.Code != 503 {
		t.Fatalf("readyz after StartDrain = %d, want 503", rec.Code)
	}
	h = decodeHealth(t, rec.Body.Bytes())
	if h.Ready || !h.Draining || h.Status != "draining" {
		t.Errorf("draining health = %+v", h)
	}
	// Liveness and the data plane stay up through the drain window.
	if rec := do(t, s, "GET", "/healthz", ""); rec.Code != 200 {
		t.Errorf("healthz while draining = %d, want 200", rec.Code)
	}
	// One handler answers both probes: GET and HEAD only, on either.
	for _, path := range []string{"/healthz", "/readyz"} {
		if rec := do(t, s, "POST", path, ""); rec.Code != 405 || rec.Header().Get("Allow") != "GET, HEAD" {
			t.Errorf("POST %s = %d Allow %q, want 405 and GET, HEAD", path, rec.Code, rec.Header().Get("Allow"))
		}
	}
	if rec := do(t, s, "POST", "/v1/match", `{"url":"http://x.example/a.js"}`); rec.Code != 200 {
		t.Errorf("match while draining = %d, want 200", rec.Code)
	}
}

func TestReadyzNoSnapshots(t *testing.T) {
	if rec := do(t, newServer(t, Config{}), "GET", "/readyz", ""); rec.Code != 503 {
		t.Fatalf("empty readyz = %d, want 503", rec.Code)
	}
}

func TestSnapshotPushInstallsPersistsAndVersions(t *testing.T) {
	dir := t.TempDir()
	listsPath := filepath.Join(dir, "lists.json")
	s := newTestServer(t, Config{ListsPath: listsPath})

	art := listsArtifact(t, "pushed-v2")
	wantVersion, err := artifact.Version(art)
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, s, "POST", "/admin/snapshot/lists", string(art))
	if rec.Code != 200 {
		t.Fatalf("push = %d: %s", rec.Code, rec.Body.Bytes())
	}
	var pr pushResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Installed || pr.Kind != "lists" || pr.Version != wantVersion {
		t.Fatalf("push response = %+v, want version %s", pr, wantVersion)
	}

	// Installed: healthz reports the pushed version and the label serves.
	h := decodeHealth(t, do(t, s, "GET", "/healthz", "").Body.Bytes())
	if h.ListsVersion != wantVersion {
		t.Errorf("lists_version = %q, want %q", h.ListsVersion, wantVersion)
	}
	if h.LastReload == nil || !h.LastReload.OK || h.LastReload.Source != "push" {
		t.Errorf("last_reload = %+v, want ok push", h.LastReload)
	}

	// Persisted atomically: disk bytes are exactly the pushed artifact.
	onDisk, err := os.ReadFile(listsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, art) {
		t.Error("persisted snapshot differs from pushed bytes")
	}

	// Pull returns the same bytes with the version header — the control
	// plane's last-good capture path.
	rec = do(t, s, "GET", "/admin/snapshot/lists", "")
	if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), art) {
		t.Fatalf("pull = %d, bytes match = %v", rec.Code, bytes.Equal(rec.Body.Bytes(), art))
	}
	if got := rec.Header().Get("X-Adwars-Snapshot-Version"); got != wantVersion {
		t.Errorf("pull version header = %q, want %q", got, wantVersion)
	}
}

func TestSnapshotPushRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{ListsPath: filepath.Join(dir, "lists.json")})
	good := listsArtifact(t, "v1")
	if rec := do(t, s, "POST", "/admin/snapshot/lists", string(good)); rec.Code != 200 {
		t.Fatalf("seed push = %d", rec.Code)
	}
	before := decodeHealth(t, do(t, s, "GET", "/healthz", "").Body.Bytes()).ListsVersion

	cases := []struct {
		name string
		body []byte
	}{
		{"bit-flip", func() []byte { b := bytes.Clone(good); b[len(b)/3] ^= 0x20; return b }()},
		{"truncated", good[:len(good)/2]},
		{"unsealed", good[:bytes.LastIndex(good, []byte(artifact.TrailerPrefix))]},
		{"sealed-garbage", artifact.Seal([]byte(`{"this is": not json`))},
	}
	rejected := s.met.ReloadRejected.Load()
	for _, tc := range cases {
		rec := do(t, s, "POST", "/admin/snapshot/lists", string(tc.body))
		if rec.Code != 422 {
			t.Errorf("%s: push = %d, want 422 (%s)", tc.name, rec.Code, rec.Body.Bytes())
		}
	}
	if got := s.met.ReloadRejected.Load(); got != rejected+uint64(len(cases)) {
		t.Errorf("reload_rejected = %d, want %d", got, rejected+uint64(len(cases)))
	}
	// Last-good kept serving: version unchanged, pull returns good bytes.
	after := decodeHealth(t, do(t, s, "GET", "/healthz", "").Body.Bytes())
	if after.ListsVersion != before {
		t.Errorf("lists_version changed across rejected pushes: %q → %q", before, after.ListsVersion)
	}
	if after.LastReload == nil || after.LastReload.OK || !after.LastReload.Rejected {
		t.Errorf("last_reload = %+v, want rejected", after.LastReload)
	}
	if rec := do(t, s, "GET", "/admin/snapshot/lists", ""); !bytes.Equal(rec.Body.Bytes(), good) {
		t.Error("pull after rejected pushes is not the last good artifact")
	}
}

func TestSnapshotPushUnconfiguredAndUnknownKind(t *testing.T) {
	s := newTestServer(t, Config{}) // no paths configured
	if rec := do(t, s, "POST", "/admin/snapshot/lists", string(listsArtifact(t, "x"))); rec.Code != 400 {
		t.Errorf("push without path = %d, want 400", rec.Code)
	}
	if rec := do(t, s, "POST", "/admin/snapshot/nope", "x"); rec.Code != 404 {
		t.Errorf("unknown kind = %d, want 404", rec.Code)
	}
	if rec := do(t, s, "GET", "/admin/snapshot/model", ""); rec.Code != 404 {
		t.Errorf("pull with no artifact-backed model = %d, want 404", rec.Code)
	}
}

// TestSnapshotPushRefusedLeavesDiskAndMemory: a push that is sealed but that
// this server cannot serve — a well-formed lists snapshot with no lists, a
// model over a feature set that does not exist, a model whose vocabulary
// repeats a name — is refused before it is persisted. The last-good file
// keeps its bytes, /healthz keeps its versions, and a replica restarted on
// those paths comes up. The two models are refused by ml.ParseModelSnapshot
// itself (model-invalid), so reload_rejected ticks for them.
func TestSnapshotPushRefusedLeavesDiskAndMemory(t *testing.T) {
	dir := t.TempDir()
	modelPath, listsPath := writeSnapshotFiles(t, dir)
	s := newServer(t, Config{ModelPath: modelPath, ListsPath: listsPath})
	if err := s.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	before := decodeHealth(t, do(t, s, "GET", "/healthz", "").Body.Bytes())

	noLists, err := abp.MarshalListsSnapshot(&abp.ListsSnapshot{Label: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := abp.ParseListsSnapshot(noLists); err != nil {
		t.Fatalf("the empty snapshot must be well formed for this test to mean anything: %v", err)
	}
	badSet := artifact.Seal([]byte(strings.Replace(testModelJSON, `"keyword"`, `"no-such-set"`, 1)))
	repeated := artifact.Seal([]byte(strings.Replace(testModelJSON,
		`"Identifier:offsetWidth"]`, `"Identifier:offsetHeight"]`, 1)))
	round := `{"kernel": "linear", "bias": -1.5, "coefs": [1], "vectors": [[0, 1]]}`
	overflowing := artifact.Seal([]byte(strings.Replace(testModelJSON,
		`"alphas": [2],
    "models": [`+round+`]`, `"alphas": [1e308, 1e308], "models": [`+round+`, `+round+`]`, 1)))
	for _, tc := range []struct {
		kind, path string
		body       []byte
		rejected   bool
	}{
		{"lists", listsPath, noLists, false},
		{"model", modelPath, badSet, true},
		{"model", modelPath, repeated, true},
		{"model", modelPath, overflowing, true},
	} {
		good, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		reloads, rejected := s.met.Reloads.Load(), s.met.ReloadRejected.Load()
		if rec := do(t, s, "POST", "/admin/snapshot/"+tc.kind, string(tc.body)); rec.Code != 422 {
			t.Fatalf("%s: push = %d, want 422 (%s)", tc.kind, rec.Code, rec.Body.Bytes())
		}
		if onDisk, err := os.ReadFile(tc.path); err != nil || !bytes.Equal(onDisk, good) {
			t.Errorf("%s: the refused push replaced the last-good file (err %v)", tc.kind, err)
		}
		after := decodeHealth(t, do(t, s, "GET", "/healthz", "").Body.Bytes())
		if after.ListsVersion != before.ListsVersion || after.ModelVersion != before.ModelVersion {
			t.Errorf("%s: versions moved across a refused push: %+v → %+v", tc.kind, before, after)
		}
		if after.LastReload == nil || after.LastReload.OK || after.LastReload.Source != "push" ||
			after.LastReload.Rejected != tc.rejected {
			t.Errorf("%s: last_reload = %+v, want a failed push, rejected %v", tc.kind, after.LastReload, tc.rejected)
		}
		if got := s.met.Reloads.Load(); got != reloads {
			t.Errorf("%s: reloads ticked %d → %d", tc.kind, reloads, got)
		}
		if got := s.met.ReloadRejected.Load() - rejected; (got == 1) != tc.rejected || got > 1 {
			t.Errorf("%s: reload_rejected ticked %d, want it to tick only for a refused file (%v)", tc.kind, got, tc.rejected)
		}
	}
	restarted := newServer(t, Config{ModelPath: modelPath, ListsPath: listsPath})
	if err := restarted.ReloadSnapshots(); err != nil {
		t.Fatalf("a replica restarted after the refused pushes cannot load: %v", err)
	}
}

// TestReloadIsAllOrNothing: a reload whose model is new and good and whose
// lists are refused — damaged, or well formed and empty — reports the
// error, does not count as a reload, and leaves the model it found.
func TestReloadIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	modelPath, listsPath := writeSnapshotFiles(t, dir)
	s := newServer(t, Config{ModelPath: modelPath, ListsPath: listsPath})
	if err := s.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	before := decodeHealth(t, do(t, s, "GET", "/healthz", "").Body.Bytes())

	newModel := artifact.Seal([]byte(strings.Replace(testModelJSON, `"top_k": 2`, `"top_k": 3`, 1)))
	if v, err := artifact.Version(newModel); err != nil || v == before.ModelVersion {
		t.Fatalf("new model version %q (err %v) must differ from %q", v, err, before.ModelVersion)
	}
	if err := os.WriteFile(modelPath, newModel, 0o644); err != nil {
		t.Fatal(err)
	}
	goodLists, err := os.ReadFile(listsPath)
	if err != nil {
		t.Fatal(err)
	}
	noLists, err := abp.MarshalListsSnapshot(&abp.ListsSnapshot{Label: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"damaged": goodLists[:len(goodLists)/2],
		"empty":   noLists,
	} {
		if err := os.WriteFile(listsPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		reloads := s.met.Reloads.Load()
		if err := s.ReloadSnapshots(); err == nil {
			t.Fatalf("%s lists: reload succeeded", name)
		}
		after := decodeHealth(t, do(t, s, "GET", "/healthz", "").Body.Bytes())
		if after.ModelVersion != before.ModelVersion || after.ListsVersion != before.ListsVersion {
			t.Errorf("%s lists: a failed reload moved versions: model %s → %s, lists %s → %s", name,
				before.ModelVersion, after.ModelVersion, before.ListsVersion, after.ListsVersion)
		}
		if got := s.met.Reloads.Load(); got != reloads {
			t.Errorf("%s lists: reloads ticked %d → %d", name, reloads, got)
		}
	}
	// With the lists whole again the same reload takes both.
	if err := os.WriteFile(listsPath, goodLists, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	after := decodeHealth(t, do(t, s, "GET", "/healthz", "").Body.Bytes())
	if after.ModelVersion == before.ModelVersion || after.ListsVersion != before.ListsVersion {
		t.Errorf("after the good reload: model %s (was %s), lists %s (was %s)",
			after.ModelVersion, before.ModelVersion, after.ListsVersion, before.ListsVersion)
	}
}
