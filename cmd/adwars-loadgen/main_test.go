package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adwars/internal/abp"
	"adwars/internal/artifact"
	"adwars/internal/degrade"
	"adwars/internal/serve"
)

// The fixture server is internal/serve's own: a hand-built model whose
// arithmetic is exact (a script probing both offsetHeight and offsetWidth
// scores 1, anything else 0) and two small lists, one of which blocks the
// probe's ads.example.com.
const testModelJSON = `{
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

const testListA = `! test list A
||ads.example.com^
@@||ads.example.com/allowed$script
/adframe/$third-party
`

const testListB = `! test list B
||tracker.example^$script
`

// testSnapshot is the fixture's two lists under the given label.
func testSnapshot(t *testing.T, label string) *abp.ListsSnapshot {
	t.Helper()
	snap := &abp.ListsSnapshot{Label: label}
	for _, l := range []struct{ name, body string }{{"list-a", testListA}, {"list-b", testListB}} {
		list, errs := abp.ParseAndBuild(l.name, l.body)
		if len(errs) != 0 {
			t.Fatalf("%s: %v", l.name, errs)
		}
		snap.Lists = append(snap.Lists, list)
	}
	return snap
}

// fixture is one in-process serve.Server behind httptest, with the lists
// snapshot it serves also on disk for -lists.
type fixture struct {
	srv   *serve.Server
	url   string
	lists string
}

// newFixture starts a server. wrap, when non-nil, stands between the
// listener and the server's handler: it is how a test breaks one invariant.
// Nothing starts the governor's own ticker, so its ladder moves only when
// the test says so.
func newFixture(t *testing.T, wrap func(next http.Handler) http.Handler) *fixture {
	t.Helper()
	dir := t.TempDir()
	cfg := serve.Config{ListsPath: filepath.Join(dir, "lists.json"), ModelPath: filepath.Join(dir, "model.json")}
	if err := abp.SaveListsSnapshot(cfg.ListsPath, testSnapshot(t, "test")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.ModelPath, artifact.Seal([]byte(testModelJSON)), 0o644); err != nil {
		t.Fatal(err)
	}
	f := &fixture{srv: serve.New(cfg), lists: cfg.ListsPath}
	if err := f.srv.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	h := f.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		f.srv.CloseAnalytics()
	})
	f.url = ts.URL
	return f
}

// load runs the command against the fixture for a short, busy while.
func (f *fixture) load(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	args = append([]string{"-target", f.url, "-lists", f.lists,
		"-duration", "150ms", "-concurrency", "2", "-classify-frac", "0.3"}, args...)
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// Ladder moves at the governor's real hysteresis: a full queue is
// over-pressure and two such observations climb one level; an idle server
// is calm and five such observations descend one.
var (
	up   = repeat(degrade.Signals{QueueDepth: 10, QueueLimit: 10}, 2)
	down = repeat(degrade.Signals{}, 5)
)

func repeat(s degrade.Signals, n int) []degrade.Signals {
	out := make([]degrade.Signals, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// tick feeds the governor every observation of the given moves, in order.
func tick(f *fixture, moves ...[]degrade.Signals) {
	for _, m := range moves {
		for _, s := range m {
			f.srv.Degrade().Tick(s)
		}
	}
}

// noAdmin answers every /admin/* path 404, as a target that is not a
// replica would; everything else goes to the server.
func noAdmin(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/admin/") {
			http.NotFound(w, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// undrained lets the server answer the first truthful /admin/analytics
// reads, then answers the rest as a replica whose consumer stopped emptying
// its rings would: the same seven decisions buffered at every read.
func undrained(truthful int64) func(http.Handler) http.Handler {
	var reads atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/admin/analytics" || reads.Add(1) <= truthful {
				next.ServeHTTP(w, r)
				return
			}
			fmt.Fprint(w, `{"enabled":true,"counters":{"recorded":3,"dropped":0,"ring_occupancy":7},"totals":{}}`)
		})
	}
}

// gatewayVars answers /debug/vars as an adwars-gateway with this failover
// count would; everything else goes to the server.
func gatewayVars(failovers int) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/debug/vars" {
				next.ServeHTTP(w, r)
				return
			}
			fmt.Fprintf(w, `{"adwars_gateway":{"failovers":%d,"retries":3}}`, failovers)
		})
	}
}

// afterRequests calls fn once, from the handler of the n-th data-plane
// request: an event inside the run, not a sleep beside it.
func afterRequests(n int64, fn func()) func(http.Handler) http.Handler {
	var seen atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/") && seen.Add(1) == n {
				fn()
			}
			next.ServeHTTP(w, r)
		})
	}
}

// foreign sends the server one blocked match request loadgen never made,
// once, at the first GET of path — a gate's baseline read: after the read is
// answered (traffic between the gate's reads), or just before it (a decision
// still in the analytics rings when the baseline is taken).
func foreign(path string, beforeRead bool) func(http.Handler) http.Handler {
	var once sync.Once
	return func(next http.Handler) http.Handler {
		send := func() {
			once.Do(func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/match",
					strings.NewReader(`{"url":"http://ads.example.com/foreign.js","type":"script"}`))
				next.ServeHTTP(httptest.NewRecorder(), req)
			})
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != path {
				next.ServeHTTP(w, r)
				return
			}
			if beforeRead {
				send()
			}
			next.ServeHTTP(w, r)
			if !beforeRead {
				send()
			}
		})
	}
}

func wantExit(t *testing.T, code, want int) {
	t.Helper()
	if code != want {
		t.Errorf("exit %d, want %d", code, want)
	}
}

func wantOutput(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output lacks %q:\n%s", w, out)
		}
	}
}

// TestGatesPass: every gate passes on a run whose invariants hold — the
// reconciling gates on a quiet server, the chaos ledger
// under hostile load, and the brownout gates on a ladder that climbed to
// L1 before the run and is stepped back to L0 early in it (L1 sheds the
// classify share, and a shed worker backs off, so the run makes few
// requests before the recovery).
func TestGatesPass(t *testing.T) {
	t.Run("ledger usage analytics", func(t *testing.T) {
		f := newFixture(t, nil)
		code, stdout, stderr := f.load("-check", "ledger,usage,analytics")
		wantExit(t, code, 0)
		wantOutput(t, stdout, "loadgen: LEDGER-CHECK OK (all requests 2xx or 429, zero 5xx)",
			"loadgen: USAGE-CHECK OK (server hit delta ", "loadgen: ANALYTICS-CHECK OK (", "  by status:  200=")
		if stderr != "" {
			t.Errorf("stderr: %s", stderr)
		}
		if strings.Contains(stdout, "hit delta 0 ==") || strings.Contains(stdout, "(0 decisions") {
			t.Errorf("a reconciliation of nothing proves nothing:\n%s", stdout)
		}
	})
	t.Run("analytics after traffic still in the rings", func(t *testing.T) {
		f := newFixture(t, foreign("/admin/analytics", true))
		code, stdout, stderr := f.load("-check", "analytics")
		wantExit(t, code, 0)
		wantOutput(t, stdout, "loadgen: ANALYTICS-CHECK OK (")
		if stderr != "" {
			t.Errorf("stderr: %s", stderr)
		}
	})
	t.Run("chaos ledger", func(t *testing.T) {
		f := newFixture(t, nil)
		code, stdout, stderr := f.load("-chaos", "-check", "ledger")
		wantExit(t, code, 0)
		wantOutput(t, stdout, "loadgen[chaos]: ", "loadgen: LEDGER-CHECK OK (chaos ledger balanced: ")
		if stderr != "" {
			t.Errorf("stderr: %s", stderr)
		}
	})
	t.Run("degrade failovers", func(t *testing.T) {
		var f *fixture
		recoverMidRun := afterRequests(5, func() { tick(f, down) })
		f = newFixture(t, func(next http.Handler) http.Handler {
			return gatewayVars(2)(recoverMidRun(next))
		})
		tick(f, up)
		code, stdout, stderr := f.load("-check", "ledger,degrade,failovers", "-degrade-url", f.url)
		wantExit(t, code, 0)
		wantOutput(t, stdout, "loadgen: LEDGER-CHECK OK", "  by degrade level:  L0=",
			"loadgen: DEGRADE-CHECK OK (1 replicas climbed >= L1 and recovered to L0 without flapping: "+f.url+" peak L1, 1 up / 1 down)",
			"loadgen: FAILOVERS-CHECK OK (gateway reports 2 failovers, 3 retries; ")
		if stderr != "" {
			t.Errorf("stderr: %s", stderr)
		}
	})
}

// TestGatesFail: each gate fails, by name, when its own invariant is
// broken, and the rows beside it are still judged.
func TestGatesFail(t *testing.T) {
	// The fifth data-plane request never reaches the server: it is
	// answered 500 with a body that is not the recovered-panic envelope.
	inject5xx := func(next http.Handler) http.Handler {
		var seen atomic.Int64
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/") && seen.Add(1) == 5 {
				http.Error(w, `{"error":{"code":"boom"}}`, http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	for _, c := range []struct {
		name   string
		wrap   func(http.Handler) http.Handler
		ladder [][]degrade.Signals // moves fed to the governor before the run
		check  string
		code   int
		stderr string
		stdout string // a row that must still pass
	}{
		{name: "ledger: a 5xx nobody explains", wrap: inject5xx,
			check: "ledger,usage", code: 1,
			stderr: "loadgen: LEDGER-CHECK FAILED: 1 unexplained 5xx responses", stdout: "loadgen: USAGE-CHECK OK"},
		{name: "usage: foreign traffic between the reads", wrap: foreign("/admin/usage", false),
			check: "ledger,usage", code: 1,
			stderr: "loadgen: USAGE-CHECK FAILED: server recorded ", stdout: "loadgen: LEDGER-CHECK OK"},
		{name: "analytics: foreign traffic between the reads",
			wrap: foreign("/admin/analytics", false), check: "analytics", code: 1,
			stderr: "loadgen: ANALYTICS-CHECK FAILED: match/blocked: server delta "},
		{name: "analytics: rings never drain", wrap: undrained(0),
			check: "ledger,analytics", code: 2,
			stderr: "loadgen: ANALYTICS-CHECK FAILED: baseline: rings did not drain: 7 decisions still buffered after 3s"},
		{name: "analytics: rings stop draining during the run", wrap: undrained(1),
			check: "ledger,analytics", code: 1,
			stderr: "loadgen: ANALYTICS-CHECK FAILED: rings did not drain after the run: 7 decisions still buffered after 3s",
			stdout: "loadgen: LEDGER-CHECK OK"},
		{name: "analytics: off", wrap: noAdmin, check: "analytics", code: 2,
			stderr: "loadgen: ANALYTICS-CHECK FAILED: baseline: GET "},
		{name: "degrade: peaked below L1",
			check: "degrade,ledger", code: 1,
			stderr: "peak level L0, want >= L1", stdout: "loadgen: LEDGER-CHECK OK"},
		{name: "degrade: flapped", ladder: [][]degrade.Signals{up, up, down, up, down, down},
			check: "degrade", code: 1,
			stderr: "6 transitions (3 up, 3 down) for peak L2 — want exactly 4 (one climb, one descent): the ladder flapped"},
		{name: "degrade: no governor", wrap: noAdmin, check: "degrade", code: 1,
			stderr: "loadgen: DEGRADE-CHECK FAILED: GET "},
		{name: "failovers: none", wrap: gatewayVars(0), check: "failovers,ledger", code: 1,
			stderr: "loadgen: FAILOVERS-CHECK FAILED: gateway reports 0 failovers", stdout: "loadgen: LEDGER-CHECK OK"},
		{name: "failovers: not a gateway", check: "failovers", code: 1,
			stderr: "loadgen: FAILOVERS-CHECK FAILED: "},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, c.wrap)
			tick(f, c.ladder...)
			code, stdout, stderr := f.load("-check", c.check, "-degrade-url", f.url)
			wantExit(t, code, c.code)
			wantOutput(t, stderr, c.stderr)
			wantOutput(t, stdout, c.stdout)
			if c.code == 2 && stdout != "" {
				t.Errorf("a run that could not be set up fired anyway:\n%s", stdout)
			}
		})
	}
}

// TestRefusedBeforeFiring: what exits 2 does so before a request is sent.
func TestRefusedBeforeFiring(t *testing.T) {
	var requests atomic.Int64
	f := newFixture(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			next.ServeHTTP(w, r)
		})
	})
	for _, c := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-check", "ledger,latency"}, `loadgen: -check: unknown gate "latency"`},
		{[]string{"-chaos", "-check", "ledger,usage"}, "loadgen: -check usage is incompatible with -chaos"},
		{[]string{"-chaos", "-check", "analytics"}, "loadgen: -check analytics is incompatible with -chaos"},
		{[]string{"-usage-check"}, "flag provided but not defined: -usage-check"},
		{[]string{"-lists", filepath.Join(t.TempDir(), "absent.json")}, "loadgen: lists snapshot: "},
		{[]string{"-concurrency", "0"}, "loadgen: -concurrency 0: need at least one worker"},
		{[]string{"-concurrency", "-1"}, "loadgen: -concurrency -1: need at least one worker"},
	} {
		code, stdout, stderr := f.load(c.args...)
		wantExit(t, code, 2)
		wantOutput(t, stderr, c.stderr)
		if stdout != "" {
			t.Errorf("%v printed a summary:\n%s", c.args, stdout)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("%d requests reached the server", n)
	}
}

// TestProbePinned: -probe's output for a fixed server, byte for byte — it
// is what the scenario table compares between a control and a survivor.
// The server loads its snapshots from files, so the output names their
// artifact versions.
func TestProbePinned(t *testing.T) {
	f := newFixture(t, nil)
	var out, errb bytes.Buffer
	if code := run([]string{"-target", f.url, "-probe"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	const want = `match: {"blocked":true,"decision":"blocked","lists":[{"list":"list-a","decision":"blocked","rule":"||ads.example.com^","matched_rules":["||ads.example.com^"]},{"list":"list-b","decision":"no-match"}],"snapshot":{"model":{"feature_set":"keyword","vocab":2,"rounds":1,"version":"eecf95be5800028a"},"lists":{"label":"test","lists":2,"rules":4,"version":"7e04f8f0ad3d2d86"}}}

classify: {"anti_adblock":true,"score":1,"decision":2,"features":2,"snapshot":{"model":{"feature_set":"keyword","vocab":2,"rounds":1,"version":"eecf95be5800028a"},"lists":{"label":"test","lists":2,"rules":4,"version":"7e04f8f0ad3d2d86"}}}

`
	if out.String() != want {
		t.Errorf("probe output:\n%s\nwant:\n%s", out.String(), want)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	defer dead.Close()
	out.Reset()
	code := run([]string{"-target", dead.URL, "-probe"}, &out, &errb)
	wantExit(t, code, 1)
	wantOutput(t, errb.String(), "loadgen: probe match: no 2xx in 50 attempts")
}
