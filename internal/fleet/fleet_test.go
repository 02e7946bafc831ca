package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"adwars/internal/abp"
	"adwars/internal/chassis"
	"adwars/internal/serve"
)

const testListText = `! fleet test list
||ads.example.com^
@@||ads.example.com/allowed$script
##.ad-banner
`

// sealedLists renders a one-list snapshot with the given label as sealed
// artifact wire bytes. Different labels produce different versions.
func sealedLists(t *testing.T, label string) []byte {
	t.Helper()
	l, errs := abp.ParseAndBuild("fleet-list", testListText)
	if len(errs) != 0 {
		t.Fatalf("list parse errors: %v", errs)
	}
	data, err := abp.MarshalListsSnapshot(&abp.ListsSnapshot{Label: label, Lists: []*abp.List{l}})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// replica is one live serve.Server on a real listener for fleet tests.
type replica struct {
	id  string
	srv *serve.Server
	ts  *httptest.Server
}

// newReplica boots a serve replica seeded (via the push path, so the
// snapshot is artifact-backed and pull-able) with the given lists bytes.
func newReplica(t *testing.T, id string, seed []byte) *replica {
	t.Helper()
	s := serve.New(serve.Config{
		ReplicaID: id,
		ListsPath: filepath.Join(t.TempDir(), "lists.json"),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if seed != nil {
		resp, err := http.Post(ts.URL+"/admin/snapshot/lists", "application/octet-stream", bytes.NewReader(seed))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seeding %s: %d %s", id, resp.StatusCode, body)
		}
	}
	return &replica{id: id, srv: s, ts: ts}
}

func urls(reps []*replica) []string {
	out := make([]string, len(reps))
	for i, r := range reps {
		out[i] = r.ts.URL
	}
	return out
}

// matchVia POSTs a /v1/match query through the given base URL and
// returns status, body, and the replica attribution header.
func matchVia(t *testing.T, base string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/match", "application/json",
		strings.NewReader(`{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`))
	if err != nil {
		t.Fatalf("match via %s: %v", base, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Adwars-Replica")
}

func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// healthOf fetches a replica's /healthz.
func healthOf(t *testing.T, base string) chassis.Health {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h chassis.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}
