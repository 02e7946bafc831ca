package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReloadUnderFire is the hot-reload guarantee, run under -race by
// `make race`: while many goroutines hammer /v1/match and /v1/classify
// over real HTTP, the snapshots are swapped continuously (both by
// control-plane push and via /admin/reload against rewritten files). Every
// single request must complete with 200 or 429 — a reload never drops,
// 500s, or torn-reads a request.
func TestReloadUnderFire(t *testing.T) {
	dir := t.TempDir()
	modelPath, listsPath := writeSnapshotFiles(t, dir)
	s := newServer(t, Config{
		ModelPath: modelPath,
		ListsPath: listsPath,
		Workers:   4,
		Queue:     256,
		// Generous deadline: this test asserts reload correctness, not
		// shedding, so nothing should miss it.
		QueueTimeout: 2 * time.Second,
	})
	if err := s.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	duration := 400 * time.Millisecond
	if testing.Short() {
		duration = 100 * time.Millisecond
	}
	deadline := time.Now().Add(duration)

	var sent, ok200, shed429, other atomic.Int64
	var firstBad atomic.Value
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; time.Now().Before(deadline); i++ {
				var resp *http.Response
				var err error
				if (c+i)%2 == 0 {
					resp, err = client.Post(ts.URL+"/v1/match", "application/json",
						strings.NewReader(`{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`))
				} else {
					resp, err = client.Post(ts.URL+"/v1/classify", "application/javascript",
						strings.NewReader(testAntiScript))
				}
				if err != nil {
					firstBad.CompareAndSwap(nil, fmt.Sprintf("transport error: %v", err))
					return
				}
				sent.Add(1)
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					shed429.Add(1)
				default:
					other.Add(1)
					firstBad.CompareAndSwap(nil, fmt.Sprintf("status %d: %s", resp.StatusCode, body))
				}
			}
		}(c)
	}

	// Reload continuously while the fire hose runs: alternate control-plane
	// pushes with full file rewrites + /admin/reload round trips.
	model, lists := testModelFile(), listsArtifact(t, "test")
	reloads := 0
	for time.Now().Before(deadline) {
		if reloads%2 == 0 {
			for kind, art := range map[string][]byte{"model": model, "lists": lists} {
				resp, err := ts.Client().Post(ts.URL+"/admin/snapshot/"+kind, "application/octet-stream", bytes.NewReader(art))
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("push %s status %d", kind, resp.StatusCode)
				}
			}
		} else {
			if err := os.WriteFile(modelPath, testModelFile(), 0o644); err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Post(ts.URL+"/admin/reload", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("reload status %d", resp.StatusCode)
			}
		}
		reloads++
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	if msg := firstBad.Load(); msg != nil {
		t.Fatalf("request failed during reload: %v", msg)
	}
	if sent.Load() == 0 || ok200.Load() == 0 {
		t.Fatalf("no traffic flowed: sent=%d ok=%d", sent.Load(), ok200.Load())
	}
	if got := ok200.Load() + shed429.Load() + other.Load(); got != sent.Load() {
		t.Fatalf("dropped requests: sent=%d accounted=%d", sent.Load(), got)
	}
	if other.Load() != 0 {
		t.Fatalf("%d non-200/429 responses", other.Load())
	}
	if reloads < 10 {
		t.Errorf("only %d reloads happened; test too weak", reloads)
	}
	t.Logf("reload-under-fire: %d requests (%d ok, %d shed) across %d reloads",
		sent.Load(), ok200.Load(), shed429.Load(), reloads)
}

// TestReloadRejectsCorruptSnapshot: a hot reload against a corrupted file
// must fail with a structured error, tick reload_rejected, and keep the
// last-good snapshots serving byte-identical answers.
func TestReloadRejectsCorruptSnapshot(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := t.TempDir()
	modelPath, listsPath := writeSnapshotFiles(t, dir)
	s := newServer(t, Config{ModelPath: modelPath, ListsPath: listsPath})
	if err := s.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	query := `{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`
	fetch := func() string {
		var out strings.Builder
		for _, req := range [][3]string{
			{"/v1/match", "application/json", query},
			{"/v1/classify", "application/javascript", testAntiScript},
		} {
			resp, err := ts.Client().Post(ts.URL+req[0], req[1], strings.NewReader(req[2]))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s status %d", req[0], resp.StatusCode)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			out.Write(body)
		}
		return out.String()
	}
	before := fetch()

	corruptions := []struct {
		name   string
		path   string
		mutate func([]byte) []byte
	}{
		{"truncated", listsPath, func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flipped", listsPath, func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[len(b)/3] ^= 0x04
			return b
		}},
		// A model that parses but would mis-score: its support vector is
		// not sorted.
		{"model-invalid", modelPath, func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"vectors": [[0, 1]]`), []byte(`"vectors": [[1, 0]]`), 1)
		}},
	}
	for i, c := range corruptions {
		good, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		bad := c.mutate(good)
		if bytes.Equal(bad, good) {
			t.Fatalf("%s: mutation changed nothing", c.name)
		}
		if err := os.WriteFile(c.path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/admin/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: reload status %d (%s), want 400", c.name, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `"code":"snapshot"`) {
			t.Errorf("%s: reload error not structured: %s", c.name, body)
		}
		if got := s.met.ReloadRejected.Load(); got != uint64(i+1) {
			t.Errorf("%s: reload_rejected = %d, want %d", c.name, got, i+1)
		}
		if after := fetch(); after != before {
			t.Fatalf("%s: served answer changed after rejected reload:\n%s\nvs\n%s", c.name, after, before)
		}

		// Restoring the good file makes the next reload succeed.
		if err := os.WriteFile(c.path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := s.ReloadSnapshots(); err != nil {
			t.Fatalf("%s: reload after restore: %v", c.name, err)
		}
		if after := fetch(); after != before {
			t.Fatalf("%s: answer changed after restore:\n%s\nvs\n%s", c.name, after, before)
		}
	}
}
