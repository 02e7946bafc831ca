package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adwars/internal/artifact"
	"adwars/internal/serve"
)

var updateShape = flag.Bool("update-shape", false, "rewrite testdata/vars_shape.golden.txt")

// shapeModelJSON is a one-vector model, enough for /v1/classify to answer.
const shapeModelJSON = `{
  "format": "adwars-model",
  "version": 2,
  "classifier": "adaboost",
  "feature_set": "keyword",
  "vocab": ["Identifier:offsetHeight", "Identifier:offsetWidth"],
  "model": {
    "alphas": [2],
    "models": [{"kernel": "rbf", "gamma": 1000, "bias": -0.5, "coefs": [1], "vectors": [[0, 1]]}]
  },
  "meta": {"top_k": 2}
}`

// jsonShape renders a JSON document as its key paths in document order, each
// with its JSON type and no value. With registry set, the document is a
// /debug/vars body and the top-level keys that are not ours (the runtime's
// memstats grow with the Go version) are named without their insides.
func jsonShape(t *testing.T, data []byte, registry bool) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	var b strings.Builder
	var walk func(path string)
	walk = func(path string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("at %s: %v\n%s", path, err, data)
		}
		kind := ""
		switch v := tok.(type) {
		case json.Delim:
			if v == '{' {
				fmt.Fprintf(&b, "%s object\n", path)
				for dec.More() {
					k, err := dec.Token()
					if err != nil {
						t.Fatalf("in %s: %v", path, err)
					}
					key := k.(string)
					if registry && path == "$" && !strings.HasPrefix(key, "adwars_") {
						var skipped json.RawMessage
						if err := dec.Decode(&skipped); err != nil {
							t.Fatalf("at %s: %v", key, err)
						}
						fmt.Fprintf(&b, "$.%s (the process's own)\n", key)
						continue
					}
					walk(path + "." + key)
				}
			} else {
				fmt.Fprintf(&b, "%s array\n", path)
				for i := 0; dec.More(); i++ {
					walk(fmt.Sprintf("%s[%d]", path, i))
				}
			}
			if _, err := dec.Token(); err != nil { // the closing delimiter
				t.Fatalf("closing %s: %v", path, err)
			}
			return
		case string:
			kind = "string"
		case float64:
			kind = "number"
		case bool:
			kind = "bool"
		case nil:
			kind = "null"
		}
		fmt.Fprintf(&b, "%s %s\n", path, kind)
	}
	walk("$")
	return b.String()
}

// TestVarsShapePinned pins what both servers publish: the key paths, their
// order and their JSON types (never values) of Server.Metrics().String(),
// Gateway.Metrics().String() and both /debug/vars bodies, for a replica with
// everything optional set (a model, a replica ID) and one with neither,
// before any traffic and after one fixed script sent through a gateway:
// each /v1 endpoint once and one 4xx. The golden file was recorded from
// the commit before the metrics trees moved onto internal/chassis; its bare
// sections' adwars_analytics and adwars_degrade trees were re-recorded when
// every replica came to run the collector and the governor. A key added,
// dropped, renamed, retyped or reordered fails here.
func TestVarsShapePinned(t *testing.T) {
	model := artifact.Seal([]byte(shapeModelJSON))
	var out strings.Builder
	record := func(name string, data []byte) {
		fmt.Fprintf(&out, "== %s ==\n%s\n", name, jsonShape(t, data, strings.HasSuffix(name, "/debug/vars")))
	}
	get := func(base, path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, resp.StatusCode, err)
		}
		return body
	}
	for _, c := range []struct {
		name string
		cfg  serve.Config
		full bool
	}{
		{"full", serve.Config{ReplicaID: "r1"}, true},
		{"bare", serve.Config{}, false},
	} {
		dir := t.TempDir()
		c.cfg.ListsPath = filepath.Join(dir, "lists.snapshot")
		if err := os.WriteFile(c.cfg.ListsPath, sealedLists(t, "v1"), 0o644); err != nil {
			t.Fatal(err)
		}
		if c.full {
			c.cfg.ModelPath = filepath.Join(dir, "model.json")
			if err := os.WriteFile(c.cfg.ModelPath, model, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := serve.New(c.cfg)
		t.Cleanup(func() { s.CloseAnalytics() })
		if err := s.ReloadSnapshots(); err != nil {
			t.Fatal(err)
		}
		rs := httptest.NewServer(s.Handler())
		t.Cleanup(rs.Close)
		g, gs := newTestGateway(t, GatewayConfig{Backends: []string{rs.URL}})

		record(c.name+" serve, no traffic: Metrics()", []byte(s.Metrics().String()))
		record(c.name+" gateway, no traffic: Metrics()", []byte(g.Metrics().String()))

		script := []struct{ path, body string }{
			{"/v1/match", `{"url":"http://ads.example.com/banner.js","type":"script"}`},
			{"/v1/match/batch", `{"requests":[{"url":"http://ads.example.com/a.js"},{"url":"http://x.example/"}]}`},
			{"/v1/classify", `var a = el.offsetHeight + el.offsetWidth;`},
			{"/v1/classify/batch", `{"scripts":["var a = 1;","var b = el.offsetHeight;"]}`},
			{"/v1/match", `{"url":""}`}, // 400
		}
		for _, q := range script {
			req, _ := http.NewRequest(http.MethodPost, gs.URL+q.path, strings.NewReader(q.body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", q.path, err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}

		record(c.name+" serve: Metrics()", []byte(s.Metrics().String()))
		record(c.name+" serve: /debug/vars", get(rs.URL, "/debug/vars"))
		record(c.name+" gateway: Metrics()", []byte(g.Metrics().String()))
		record(c.name+" gateway: /debug/vars", get(gs.URL, "/debug/vars"))
	}

	const path = "testdata/vars_shape.golden.txt"
	if *updateShape {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-shape): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("published shape differs from %s:\n%s", path, firstDiff(string(want), got))
	}
}

// firstDiff names the first line on which two shapes part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	section := ""
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d, under %q:\n want %q\n  got %q", i+1, section, wl, gl)
		}
		if strings.HasPrefix(wl, "== ") {
			section = wl
		}
	}
	return "no difference"
}
