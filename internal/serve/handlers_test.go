package serve

import (
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adwars/internal/abp"
	"adwars/internal/artifact"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden compares a response body against testdata/<name>.golden.json,
// rewriting the file under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("response differs from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req = httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func TestHandlersGolden(t *testing.T) {
	deflt := newTestServer(t, Config{})
	bare := newServer(t, Config{}) // no snapshots loaded

	cases := []struct {
		name   string
		server *Server
		method string
		path   string
		body   string
		status int
	}{
		{"match_blocked", deflt, "POST", "/v1/match",
			`{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`, 200},
		{"match_allowed", deflt, "POST", "/v1/match",
			`{"url":"http://ads.example.com/allowed","type":"script","page_domain":"news.example"}`, 200},
		{"match_nomatch", deflt, "POST", "/v1/match",
			`{"url":"http://clean.example/app.js","type":"script","page_domain":"clean.example"}`, 200},
		{"match_third_party", deflt, "POST", "/v1/match",
			`{"url":"http://cdn.example/adframe/x.html","type":"subdocument","page_domain":"news.example"}`, 200},
		// The edge contract for non-ASCII URLs: bytes are matched as sent,
		// raw UTF-8 or percent-encoded alike, and only A–Z folds.
		{"match_raw_utf8", deflt, "POST", "/v1/match",
			`{"url":"http://CDN.example/AdFrame/café.html","type":"subdocument","page_domain":"news.example"}`, 200},
		{"match_percent_encoded", deflt, "POST", "/v1/match",
			`{"url":"http://ads.example.com/Allowed/caf%C3%A9.js","type":"script","page_domain":"news.example"}`, 200},
		{"match_batch", deflt, "POST", "/v1/match/batch",
			`{"requests":[{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"},{"url":"http://tracker.example/t.js","type":"script","page_domain":"news.example"},{"url":"http://clean.example/app.js"}]}`, 200},
		{"classify_anti", deflt, "POST", "/v1/classify", testAntiScript, 200},
		{"classify_benign", deflt, "POST", "/v1/classify", testBenignScript, 200},
		{"classify_batch", deflt, "POST", "/v1/classify/batch",
			`{"scripts":[` + quoteJSON(testAntiScript) + `,"(((","` + `var x = 1;"]}`, 200},

		// Error paths: structured 4xx envelopes, never 500.
		{"error_bad_json", deflt, "POST", "/v1/match", `{"url": unquoted}`, 400},
		{"error_missing_url", deflt, "POST", "/v1/match", `{"type":"script"}`, 400},
		{"error_bad_type", deflt, "POST", "/v1/match", `{"url":"http://x.example/","type":"teapot"}`, 400},
		{"error_empty_batch", deflt, "POST", "/v1/match/batch", `{"requests":[]}`, 400},
		{"error_batch_item", deflt, "POST", "/v1/match/batch", `{"requests":[{"type":"script"}]}`, 400},
		{"error_empty_script", deflt, "POST", "/v1/classify", ``, 400},
		{"error_malformed_js", deflt, "POST", "/v1/classify", `function ((( {`, 422},
		{"error_oversized", deflt, "POST", "/v1/classify",
			strings.Repeat("x", maxBody+1), 413},
		{"error_method", deflt, "GET", "/v1/match", ``, 405},
		{"error_not_found", deflt, "POST", "/v1/nope", `{}`, 404},
		{"error_no_lists", bare, "POST", "/v1/match", `{"url":"http://x.example/"}`, 503},
		{"error_no_model", bare, "POST", "/v1/classify", testBenignScript, 503},
		{"error_reload_unconfigured", deflt, "POST", "/admin/reload", ``, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, tc.server, tc.method, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d; body: %s", rec.Code, tc.status, rec.Body.Bytes())
			}
			if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
				t.Errorf("content type = %q, want JSON", ct)
			}
			golden(t, tc.name, rec.Body.Bytes())
			if tc.path == "/v1/match" && tc.status == 200 {
				assertMatchEqualsOracle(t, tc.body, rec.Body.Bytes())
			}
		})
	}
}

// assertMatchEqualsOracle holds a /v1/match reply to the linear scan of
// each fixture list: verdict, winning rule and every matched rule in order.
func assertMatchEqualsOracle(t *testing.T, body string, reply []byte) {
	t.Helper()
	var mq MatchQuery
	if err := json.Unmarshal([]byte(body), &mq); err != nil {
		t.Fatal(err)
	}
	var got MatchResult
	if err := json.Unmarshal(reply, &got); err != nil {
		t.Fatal(err)
	}
	q := abp.Request{URL: mq.URL, Type: abp.RequestType(mq.Type), PageDomain: mq.PageDomain}
	var want []ListMatch
	for _, l := range testListsSnapshot(t).Lists {
		d, r := l.MatchRequestLinear(q)
		lm := ListMatch{List: l.Name, Decision: d.String()}
		if r != nil {
			lm.Rule = r.Raw
		}
		for _, m := range l.MatchingHTTPRulesLinear(q) {
			lm.MatchedRules = append(lm.MatchedRules, m.Raw)
		}
		want = append(want, lm)
	}
	if !reflect.DeepEqual(got.Lists, want) {
		t.Errorf("%q: reply lists %+v != linear oracle %+v", mq.URL, got.Lists, want)
	}
}

// quoteJSON wraps a script as a JSON string literal.
func quoteJSON(s string) string {
	out := strings.ReplaceAll(s, `\`, `\\`)
	out = strings.ReplaceAll(out, `"`, `\"`)
	return `"` + out + `"`
}

func TestBatchTooLarge(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"requests":[` + strings.Repeat(`{"url":"http://a.example/"},`, maxBatch) + `{"url":"http://b.example/"}]}`
	rec := do(t, s, "POST", "/v1/match/batch", body)
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "batch_too_large") {
		t.Fatalf("status %d body %s", rec.Code, rec.Body.Bytes())
	}
	golden(t, "error_batch_too_large", rec.Body.Bytes())
}

// TestMatchRequestTypes: /v1/match takes the request types abp matches on
// and "" (other), and refuses every other spelling, an option name that only
// folds onto a type or a type in capitals included.
func TestMatchRequestTypes(t *testing.T) {
	s := newTestServer(t, Config{})
	for typ, status := range map[string]int{
		"": 200, "script": 200, "image": 200, "stylesheet": 200, "object": 200,
		"xmlhttprequest": 200, "subdocument": 200, "document": 200, "popup": 200,
		"other": 200, "font": 400, "Script": 400, "teapot": 400,
	} {
		body := `{"url":"http://a.example/","type":` + quoteJSON(typ) + `}`
		if rec := do(t, s, "POST", "/v1/match", body); rec.Code != status {
			t.Errorf("type %q: status %d, want %d", typ, rec.Code, status)
		}
	}
}

// TestClientErrorsCounted: every 4xx a /v1 endpoint answers, sheds aside, is
// one more in that endpoint's errors and in no other's; an answered request
// is in none.
func TestClientErrorsCounted(t *testing.T) {
	s := newTestServer(t, Config{})
	oversized := strings.Repeat("x", maxBody+1)
	urls := func(n int) string {
		return `{"requests":[` + strings.Repeat(`{"url":"http://a.example/"},`, n-1) + `{"url":"http://a.example/"}]}`
	}
	scripts := `{"scripts":[` + strings.Repeat(`"var a = 1;",`, maxBatch) + `"var a = 1;"]}`
	cases := []struct {
		ep, method, path, body string
		status                 int
	}{
		{epMatch, "GET", "/v1/match", ``, 405},
		{epMatch, "POST", "/v1/match", oversized, 413},
		{epMatch, "POST", "/v1/match", `{"url":`, 400},
		{epMatch, "POST", "/v1/match", `{"type":"script"}`, 400},
		{epMatch, "POST", "/v1/match", `{"url":"http://a.example/"}`, 200},
		{epMatchBatch, "GET", "/v1/match/batch", ``, 405},
		{epMatchBatch, "POST", "/v1/match/batch", oversized, 413},
		{epMatchBatch, "POST", "/v1/match/batch", `{"requests":`, 400},
		{epMatchBatch, "POST", "/v1/match/batch", `{"requests":[]}`, 400},
		{epMatchBatch, "POST", "/v1/match/batch", urls(maxBatch + 1), 400},
		{epMatchBatch, "POST", "/v1/match/batch", `{"requests":[{"type":"script"}]}`, 400},
		{epMatchBatch, "POST", "/v1/match/batch", urls(2), 200},
		{epClassify, "GET", "/v1/classify", ``, 405},
		{epClassify, "POST", "/v1/classify", oversized, 413},
		{epClassify, "POST", "/v1/classify", ``, 400},
		{epClassify, "POST", "/v1/classify", `function ((( {`, 422},
		{epClassify, "POST", "/v1/classify", `var a = 1;`, 200},
		{epClassifyBatch, "GET", "/v1/classify/batch", ``, 405},
		{epClassifyBatch, "POST", "/v1/classify/batch", oversized, 413},
		{epClassifyBatch, "POST", "/v1/classify/batch", `{"scripts":`, 400},
		{epClassifyBatch, "POST", "/v1/classify/batch", `{"scripts":[]}`, 400},
		{epClassifyBatch, "POST", "/v1/classify/batch", scripts, 400},
		{epClassifyBatch, "POST", "/v1/classify/batch", `{"scripts":["var a = 1;"]}`, 200},
	}
	errs := func() map[string]uint64 {
		m := make(map[string]uint64, len(s.met.endpoints))
		for ep, st := range s.met.endpoints {
			m[ep] = st.Errors.Load()
		}
		return m
	}
	for _, c := range cases {
		before := errs()
		if rec := do(t, s, c.method, c.path, c.body); rec.Code != c.status {
			t.Fatalf("%s %s (%.40q): status %d, want %d", c.method, c.path, c.body, rec.Code, c.status)
		}
		want := before
		if c.status != 200 {
			want[c.ep]++
		}
		if got := errs(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s (%.40q) → %d: errors %v, want %v", c.method, c.path, c.body, c.status, got, want)
		}
	}
}

func TestReloadFromDiskAndVersionError(t *testing.T) {
	dir := t.TempDir()
	modelPath, listsPath := writeSnapshotFiles(t, dir)
	s := newServer(t, Config{ModelPath: modelPath, ListsPath: listsPath})

	// Before the first reload nothing is installed.
	if rec := do(t, s, "POST", "/v1/match", `{"url":"http://x.example/"}`); rec.Code != 503 {
		t.Fatalf("pre-reload status = %d, want 503", rec.Code)
	}
	rec := do(t, s, "POST", "/admin/reload", "")
	if rec.Code != 200 {
		t.Fatalf("reload status = %d: %s", rec.Code, rec.Body.Bytes())
	}
	golden(t, "reload_ok", rec.Body.Bytes())

	// A future-versioned model snapshot must be rejected with a structured
	// 4xx and must not disturb the installed snapshots.
	bad := strings.Replace(testModelJSON, `"version": 2`, `"version": 999`, 1)
	if err := os.WriteFile(modelPath, artifact.Seal([]byte(bad)), 0o644); err != nil {
		t.Fatal(err)
	}
	rec = do(t, s, "POST", "/admin/reload", "")
	if rec.Code != 400 {
		t.Fatalf("bad reload status = %d, want 400: %s", rec.Code, rec.Body.Bytes())
	}
	if !strings.Contains(rec.Body.String(), "snapshot") {
		t.Errorf("bad reload body: %s", rec.Body.Bytes())
	}
	// Old model still serves.
	if rec := do(t, s, "POST", "/v1/classify", testAntiScript); rec.Code != 200 {
		t.Fatalf("post-failed-reload classify = %d", rec.Code)
	}
}

func TestHealthzAndDebugVars(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec := do(t, s, "GET", "/healthz", ""); rec.Code != 200 {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if rec := do(t, newServer(t, Config{}), "GET", "/healthz", ""); rec.Code != 503 {
		t.Fatalf("empty healthz = %d, want 503", rec.Code)
	}

	// Both are read-only: any other verb is a 405 in the shared envelope.
	for _, path := range []string{"/healthz", "/debug/vars"} {
		rec := do(t, s, "POST", path, "")
		want := `{"error":{"code":"method_not_allowed","message":"` + path + ` requires GET or HEAD"}}` + "\n"
		if rec.Code != 405 || rec.Header().Get("Allow") != "GET, HEAD" || rec.Body.String() != want {
			t.Errorf("POST %s = %d, Allow %q, body %s", path, rec.Code, rec.Header().Get("Allow"), rec.Body)
		}
		if rec := do(t, s, "HEAD", path, ""); rec.Code != 200 {
			t.Errorf("HEAD %s = %d, want 200", path, rec.Code)
		}
	}

	// Traffic shows up in /debug/vars under adwars_serve.
	do(t, s, "POST", "/v1/match", `{"url":"http://ads.example.com/banner.js"}`)
	rec := do(t, s, "GET", "/debug/vars", "")
	if rec.Code != 200 {
		t.Fatalf("debug/vars = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"adwars_serve"`, `"endpoints"`, `"match"`, `"p99_ns"`, `"queue_depth"`,
		// The installed model, sized: the fixture has one round of one vector.
		`"model":{"rounds":1,"support_vectors":1,"distinct_vectors":1}`} {
		if !strings.Contains(body, want) {
			t.Errorf("debug/vars missing %s in %s", want, body)
		}
	}
	// No model installed, no model object.
	if body := do(t, newServer(t, Config{}), "GET", "/debug/vars", "").Body.String(); strings.Contains(body, `"model"`) {
		t.Errorf("debug/vars of a server without a model describes one: %s", body)
	}
}
