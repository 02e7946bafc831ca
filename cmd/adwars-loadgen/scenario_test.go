package main

// The serving stack's systems claims, as one table: a hot reload drops
// nothing, a damaged reload keeps last-good serving, a killed replica costs
// the gateway failovers and the client no 5xx, a poisoned rollout stops at
// the canary and rolls back, and an overdriven fleet sheds at admission,
// answers or sheds every request and answers as it did unloaded. Each row is a list of steps: replicas booted
// with their serve.Config, a gateway in front of them, doors that inject
// faults in front of a replica, load windows judged by this command's own
// -check gates, probes held to a control's answers, and events that fire
// from inside a window, when its N-th data-plane request arrives.
//
// TestScenarios plays every row on in-process stand-ins: serve.Server and
// fleet.Gateway, each running its own Serve on its own loopback listener.
// TestScenarioProcesses plays the rows marked procs through the built
// binaries, for what only processes show: portfiles, signals and exit codes.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"adwars/internal/abp"
	"adwars/internal/analytics"
	"adwars/internal/artifact"
	"adwars/internal/chassis"
	"adwars/internal/fleet"
	"adwars/internal/serve"
	"adwars/internal/wire"
)

// scenario is one row of the table.
type scenario struct {
	name  string
	procs bool // also played through the built binaries
	steps []step
}

// step is one thing a row does; what names it when it fails.
type step struct {
	what string
	do   func(*env) error
}

// event is a step fired from inside a load window, once the window's at-th
// data-plane request has arrived.
type event struct {
	at int64
	step
}

// window is one load run: loadgen against target with -check gates, more
// flags, and events.
type window struct {
	target string
	check  string
	args   []string
	events []event
}

// starved is an overdriven replica: one worker behind a queue of eight.
// Behind a door that holds every answer's worker slot 5ms (starve), a
// replica answers ≈ 200 requests a second and the queue stays full under
// load, so admission sheds.
var starved = serve.Config{Workers: 1, Queue: 8, QueueTimeout: 50 * time.Millisecond}

var starve = faults{slowEvery: 1, slow: 5 * time.Millisecond}

var scenarios = []scenario{
	// One replica through its life: two hot reloads under load (the first
	// of a file cut in half, refused while last-good serves; the second of
	// the whole file), usage and analytics ledgers reconciled to the unit,
	// the live dashboard, a clean drain that leaves the analytics spill the
	// dashboard renders from disk.
	{name: "serve", procs: true, steps: []step{
		boot("main", serve.Config{Analytics: &analytics.Config{}}),
		load(window{target: "main", check: "ledger", args: []string{"-duration", "600ms", "-concurrency", "4"},
			events: []event{{200, reload("main", true)}, {600, reload("main", false)}}}),
		load(window{target: "main", check: "ledger,usage", args: []string{"-duration", "300ms", "-concurrency", "2"}}),
		load(window{target: "main", check: "ledger,analytics", args: []string{"-duration", "300ms", "-concurrency", "2"}}),
		dashboard("main"),
		drain("main"),
		spilled("main"),
	}},
	// A replica under fire: every fault class injected at its door, an
	// admission queue small enough to shed, hostile requests among the
	// normal ones, and its snapshot cut and restored mid-fire. The chaos
	// ledger balances and the survivor answers as a fault-free control did.
	{name: "chaos", steps: []step{
		boot("control", serve.Config{}),
		probe("control"),
		drain("control"),
		boot("main", serve.Config{Workers: 1, Queue: 2, QueueTimeout: 2 * time.Millisecond}),
		front("faulty", "main", faults{every: 20, slowEvery: 10, slow: 10 * time.Millisecond}),
		load(window{target: "faulty", check: "ledger", args: []string{"-duration", "1s", "-concurrency", "8",
			"-classify-frac", "0.3", "-chaos", "-fault-frac", "0.25"},
			events: []event{{100, reload("main", true)}, {250, reload("main", false)}}}),
		probe("main"),
		drain("faulty", "main"),
	}},
	// Three replicas behind the gateway: one killed mid-load and restarted
	// on its address (failovers, no 5xx, answers as a single node's), then
	// the control plane: a damaged seal refused before any push, an artifact
	// the canary cannot parse rolled back, a new version converged on all
	// three.
	{name: "fleet", procs: true, steps: []step{
		boot("control", serve.Config{}),
		probe("control"),
		drain("control"),
		boot("r1", serve.Config{}),
		boot("r2", serve.Config{}),
		boot("r3", serve.Config{}),
		gateway("r1", "r2", "r3"),
		probe("gateway"),
		load(window{target: "gateway", check: "ledger,failovers",
			args:   []string{"-duration", "1500ms", "-concurrency", "8", "-classify-frac", "0.2"},
			events: []event{{300, kill("r2")}, {1000, boot("r2", serve.Config{})}}}),
		probe("gateway"),
		rollout("flipped", fleet.ErrBadArtifact, "r1", "r2", "r3"),
		rollout("poison", fleet.ErrRolledBack, "r1", "r2", "r3"),
		probe("gateway"),
		rollout("v2", nil, "r1", "r2", "r3"),
		agree("r1", "r2", "r3"),
		drain("gateway", "r1", "r2", "r3"),
	}},
	// Two starved replicas overdriven through the gateway: each sheds at
	// admission, every request is answered or shed (sent = 2xx + 429, no
	// 5xx), and the fleet answers as it did unloaded once the load stops.
	{name: "shed", steps: []step{
		boot("r1", starved),
		boot("r2", starved),
		front("r1-slow", "r1", starve),
		front("r2-slow", "r2", starve),
		gateway("r1-slow", "r2-slow"),
		probe("gateway"),
		load(window{target: "gateway", check: "ledger",
			args: []string{"-duration", "1500ms", "-concurrency", "32", "-classify-frac", "0.3"}}),
		shed("r1", "r2"),
		probe("gateway"),
		drain("gateway", "r1-slow", "r2-slow", "r1", "r2"),
	}},
}

// TestScenarios plays every row on in-process stand-ins.
func TestScenarios(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) { sc.play(t, &inProc{nodes: map[string]*node{}, addrs: map[string]string{}}) })
	}
}

// TestScenarioProcesses plays the serve and fleet rows through the built
// adwars-serve, adwars-gateway and adwars-ctl.
func TestScenarioProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	if raceEnabled {
		t.Skip("the race detector does not reach the binaries")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the binaries with")
	}
	bin := t.TempDir()
	build := exec.Command(gobin, "build", "-o", bin, "adwars/cmd/adwars-serve", "adwars/cmd/adwars-gateway", "adwars/cmd/adwars-ctl")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, sc := range scenarios {
		if sc.procs {
			t.Run(sc.name, func(t *testing.T) {
				sc.play(t, &procs{t: t, bin: bin, tmp: t.TempDir(), running: map[string]*proc{},
					addrs: map[string]string{}, logs: map[string]*logBuf{}})
			})
		}
	}
}

// stage runs a row's replicas and gateway: in-process stand-ins, or
// processes. Booting a name that ran before restarts it on the address it
// had.
type stage interface {
	boot(name string, cfg serve.Config) error
	gateway(backends []string) error
	// front starts name, a door in front of running replica target that
	// meets the data-plane requests passing it with f.
	front(name, target string, f faults) error
	url(name string) string
	// reload makes name re-read its snapshots, as SIGHUP does; the error is
	// the reload's.
	reload(name string) error
	// kill stops name without draining; drain stops it gracefully and wants
	// a clean exit.
	kill(name string) error
	drain(name string) error
	// rollout pushes the lists artifact at path through the replicas, as
	// adwars-ctl -push-lists does, and returns the control plane's verdict.
	rollout(path string, replicas []string) error
	// door returns the URL a load window is sent to, with the window's
	// events armed on the requests that pass; closing it disarms them.
	door(name string, a *arms) (url string, close func(), err error)
	stopAll()
}

// env is one play of a row: its stage, the directory it runs in (the frozen
// snapshots, and one subdirectory per replica with that replica's own
// copies and its analytics spill), and the answers of its first probe.
type env struct {
	stage
	root    string
	control string
}

func (e *env) dir(name string) string { return filepath.Join(e.root, name) }

func (e *env) urls(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = e.url(n)
	}
	return out
}

func (sc scenario) play(t *testing.T, st stage) {
	e := &env{stage: st, root: t.TempDir()}
	freeze(t, e.root)
	defer st.stopAll()
	for i, s := range sc.steps {
		if err := s.do(e); err != nil {
			t.Fatalf("step %d, %s: %v", i+1, s.what, err)
		}
	}
}

// freeze writes what a row boots from and pushes: the fixture's lists and
// model sealed, a second lists version, the lists with one payload byte
// changed under an intact trailer, and a well-sealed artifact no replica
// can parse.
func freeze(t *testing.T, root string) {
	t.Helper()
	lists := filepath.Join(root, "lists.json")
	if err := abp.SaveListsSnapshot(lists, testSnapshot(t, "test")); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(lists)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(whole)
	flipped[len(flipped)/2] ^= 0xff
	v2, err := abp.MarshalListsSnapshot(testSnapshot(t, "v2"))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"model.json":   artifact.Seal([]byte(testModelJSON)),
		"v2.json":      v2,
		"flipped.json": flipped,
		"poison.json":  artifact.Seal([]byte(`{"format":"adwars-lists","version":1,"lists":`)),
	} {
		if err := os.WriteFile(filepath.Join(root, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// client reads the servers' own endpoints for the steps.
var client = &http.Client{Timeout: 5 * time.Second}

// boot starts replica name from its own copies of the frozen snapshots,
// made on its first boot. A replica whose config sets Analytics spills
// into its directory.
func boot(name string, cfg serve.Config) step {
	return step{"boot " + name, func(e *env) error {
		dir := e.dir(name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, f := range []string{"lists.json", "model.json"} {
			if _, err := os.Stat(filepath.Join(dir, f)); err == nil {
				continue
			}
			data, err := os.ReadFile(filepath.Join(e.root, f))
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
				return err
			}
		}
		c := cfg
		c.ReplicaID = name
		c.ListsPath = filepath.Join(dir, "lists.json")
		c.ModelPath = filepath.Join(dir, "model.json")
		if cfg.Analytics != nil {
			c.Analytics = &analytics.Config{SpillDir: filepath.Join(dir, "spill")}
		}
		return e.boot(name, c)
	}}
}

func front(name, target string, f faults) step {
	return step{"front " + target + " with " + name, func(e *env) error { return e.front(name, target, f) }}
}

func gateway(replicas ...string) step {
	return step{"gateway over " + strings.Join(replicas, ","), func(e *env) error {
		return e.gateway(e.urls(replicas))
	}}
}

func kill(name string) step {
	return step{"kill " + name, func(e *env) error { return e.kill(name) }}
}

func drain(names ...string) step {
	return step{"drain " + strings.Join(names, ","), func(e *env) error {
		for _, n := range names {
			if err := e.drain(n); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	}}
}

// load fires one window; loadgen's exit status is the verdict of its gates.
func load(w window) step {
	return step{"load " + w.target + " -check " + w.check, func(e *env) error {
		a := &arms{events: w.events, env: e}
		url, closeDoor, err := e.door(w.target, a)
		if err != nil {
			return err
		}
		args := append([]string{"-target", url, "-lists", filepath.Join(e.root, "lists.json"), "-check", w.check}, w.args...)
		var out, errb bytes.Buffer
		code := run(args, &out, &errb)
		closeDoor()
		if err := a.err(); err != nil {
			return err
		}
		if code != 0 {
			return fmt.Errorf("loadgen exit %d:\n%s%s", code, out.String(), errb.String())
		}
		return nil
	}}
}

// arms holds a window's events. Each fires once, in order, when the count
// of the window's data-plane requests reaches its mark; the lock is held
// while one fires, so a restart never overtakes its kill.
type arms struct {
	mu     sync.Mutex
	events []event
	env    *env
	fired  int
	errs   []error
}

func (a *arms) reached(n int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for ; a.fired < len(a.events) && a.events[a.fired].at <= n; a.fired++ {
		ev := a.events[a.fired]
		if err := ev.do(a.env); err != nil {
			a.errs = append(a.errs, fmt.Errorf("at request %d, %s: %w", ev.at, ev.what, err))
		}
	}
}

func (a *arms) err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, ev := range a.events[a.fired:] {
		a.errs = append(a.errs, fmt.Errorf("%s: the window ended before request %d", ev.what, ev.at))
	}
	return errors.Join(a.errs...)
}

// probe holds target's canonical answers to the row's first probe, which
// is the control.
func probe(target string) step {
	return step{"probe " + target, func(e *env) error {
		got, err := answers(e.url(target))
		if err != nil {
			return err
		}
		if e.control == "" {
			e.control = got
		} else if got != e.control {
			return fmt.Errorf("answers differ from the control's:\n%s\ncontrol:\n%s", got, e.control)
		}
		return nil
	}}
}

// shed wants every named replica to have shed at admission: a row about
// overload whose replicas never shed proves nothing about it.
func shed(names ...string) step {
	return step{"shed " + strings.Join(names, ","), func(e *env) error {
		for _, n := range names {
			var vars struct {
				Serve struct {
					Endpoints map[string]struct {
						Shed int64 `json:"shed"`
					} `json:"endpoints"`
				} `json:"adwars_serve"`
			}
			if err := getJSON(http.DefaultClient, e.url(n)+"/debug/vars", &vars); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			var shed int64
			for _, ep := range vars.Serve.Endpoints {
				shed += ep.Shed
			}
			if shed == 0 {
				return fmt.Errorf("%s shed nothing", n)
			}
		}
		return nil
	}}
}

// agree wants the same canonical answers from every named replica.
func agree(names ...string) step {
	return step{"agree " + strings.Join(names, ","), func(e *env) error {
		first, err := answers(e.url(names[0]))
		if err != nil {
			return err
		}
		for _, n := range names[1:] {
			got, err := answers(e.url(n))
			if err != nil {
				return err
			}
			if got != first {
				return fmt.Errorf("%s answers differ from %s's:\n%s\n%s", n, names[0], got, first)
			}
		}
		return nil
	}}
}

func answers(url string) (string, error) {
	var out, errb bytes.Buffer
	if code := run([]string{"-target", url, "-probe"}, &out, &errb); code != 0 {
		return "", fmt.Errorf("probe exit %d: %s", code, errb.String())
	}
	return out.String(), nil
}

// health reads one replica's /healthz.
func health(url string) (*chassis.Health, error) {
	var h chassis.Health
	if err := getJSON(client, url+"/healthz", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// lastGood is the version of the frozen lists every replica boots from.
func lastGood(e *env) (string, error) {
	data, err := os.ReadFile(filepath.Join(e.root, "lists.json"))
	if err != nil {
		return "", err
	}
	return artifact.Version(data)
}

// reload gives replica name its lists snapshot again, cut in half or
// whole, and has it re-read. A cut file must be refused as damaged while
// last-good keeps serving; the whole one must install.
func reload(name string, cut bool) step {
	what := "reload " + name + " whole"
	if cut {
		what = "reload " + name + " cut in half"
	}
	return step{what, func(e *env) error {
		data, err := os.ReadFile(filepath.Join(e.root, "lists.json"))
		if err != nil {
			return err
		}
		if cut {
			data = data[:len(data)/2]
		}
		if err := os.WriteFile(filepath.Join(e.dir(name), "lists.json"), data, 0o644); err != nil {
			return err
		}
		err = e.reload(name)
		switch {
		case cut && err == nil:
			return errors.New("a lists snapshot cut in half was installed")
		case !cut && err != nil:
			return err
		}
		h, err := health(e.url(name))
		if err != nil {
			return err
		}
		want, err := lastGood(e)
		if err != nil {
			return err
		}
		if h.ListsVersion != want || h.LastReload == nil || h.LastReload.Rejected != cut {
			return fmt.Errorf("serves %s with last reload %+v, want %s with rejected=%v", h.ListsVersion, h.LastReload, want, cut)
		}
		return nil
	}}
}

// rollout pushes the frozen artifact kind through the replicas, canary
// first, and wants the control plane's verdict: a damaged seal refused
// before any push (fleet.ErrBadArtifact), an artifact the canary cannot
// parse rolled back with the canary's refusal on record
// (fleet.ErrRolledBack) — either way every replica still on last-good — or
// every replica converged on the new version (nil).
func rollout(kind string, want error, replicas ...string) step {
	return step{"rollout " + kind, func(e *env) error {
		path := filepath.Join(e.root, kind+".json")
		urls := e.urls(replicas)
		if err := e.rollout(path, urls); !errors.Is(err, want) {
			return fmt.Errorf("verdict %v, want %v", err, want)
		}
		version, err := lastGood(e)
		if want == nil {
			var data []byte
			if data, err = os.ReadFile(path); err == nil {
				version, err = artifact.Version(data)
			}
		}
		if err != nil {
			return err
		}
		for i, url := range urls {
			h, err := health(url)
			if err != nil {
				return err
			}
			if h.ListsVersion != version {
				return fmt.Errorf("%s serves %s, want %s", replicas[i], h.ListsVersion, version)
			}
			if i == 0 && errors.Is(want, fleet.ErrRolledBack) && (h.LastReload == nil || !h.LastReload.Rejected) {
				return fmt.Errorf("the canary's refusal is not on record: last reload %+v", h.LastReload)
			}
		}
		return nil
	}}
}

// dashboard renders replica name's live analytics as adwars-report -live
// -url does.
func dashboard(name string) step {
	return step{"dashboard of " + name, func(e *env) error {
		var snap analytics.Snapshot
		if err := getJSON(client, e.url(name)+"/admin/analytics", &snap); err != nil {
			return err
		}
		return rendered(analytics.RowsFromSnapshot(&snap))
	}}
}

// spilled wants the analytics spill a drained replica flushed, rendered as
// adwars-report -live -spill does.
func spilled(name string) step {
	return step{"spill of " + name, func(e *env) error {
		dir := filepath.Join(e.dir(name), "spill")
		if files, _ := filepath.Glob(filepath.Join(dir, "analytics-*.jsonl")); len(files) == 0 {
			return errors.New("no analytics spill files after drain")
		}
		rows, err := analytics.ReadSpillDir(dir)
		if err != nil {
			return err
		}
		return rendered(rows)
	}}
}

// rendered wants a dashboard that carries decisions and attributes at
// least one firing rule.
func rendered(rows []analytics.Row) error {
	out := analytics.BuildReport(rows).Render(10)
	if !strings.Contains(out, "live serving analytics") || strings.Contains(out, " 0 decisions") ||
		strings.Contains(out, "(no rules fired)") {
		return fmt.Errorf("the dashboard is empty:\n%s", out)
	}
	return nil
}

// inProc is the stage of in-process stand-ins. Events reach it from
// request handlers, so its maps are locked.
type inProc struct {
	mu    sync.Mutex
	nodes map[string]*node  // running
	addrs map[string]string // every name ever started
}

// node is one running stand-in: its Serve on its own listener.
type node struct {
	srv     *serve.Server // nil for the gateway and fronts
	handler http.Handler
	ln      *killable
	cancel  context.CancelFunc
	done    chan error // Serve's result
}

func (s *inProc) boot(name string, cfg serve.Config) error {
	srv := serve.New(cfg)
	if err := srv.AnalyticsError(); err != nil {
		return err
	}
	if err := srv.ReloadSnapshots(); err != nil {
		return err
	}
	return s.start(name, srv, srv.Handler(), srv.Serve)
}

func (s *inProc) gateway(backends []string) error {
	g, err := fleet.NewGateway(fleet.GatewayConfig{Backends: backends})
	if err != nil {
		return err
	}
	return s.start("gateway", nil, g.Handler(), g.Serve)
}

// front serves f around target's handler on a wire loop of its own; target
// keeps running its Serve.
func (s *inProc) front(name, target string, f faults) error {
	n, err := s.get(target, false)
	if err != nil {
		return err
	}
	h := f.wrap(n.handler)
	return s.start(name, nil, h, func(ctx context.Context, ln net.Listener) error {
		return (&wire.Server{Handler: h}).Run(ctx, ln, 5*time.Second, nil)
	})
}

func (s *inProc) start(name string, srv *serve.Server, h http.Handler, serveOn func(context.Context, net.Listener) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nodes[name] != nil {
		return fmt.Errorf("%s is already running", name)
	}
	addr := s.addrs[name]
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{srv: srv, handler: h, ln: &killable{Listener: ln}, cancel: cancel, done: make(chan error, 1)}
	go func() { n.done <- serveOn(ctx, n.ln) }()
	s.nodes[name] = n
	s.addrs[name] = ln.Addr().String()
	return nil
}

// get returns running name; take also removes it, for the caller to stop.
func (s *inProc) get(name string, take bool) (*node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[name]
	if n == nil {
		return nil, fmt.Errorf("%s is not running", name)
	}
	if take {
		delete(s.nodes, name)
	}
	return n, nil
}

func (s *inProc) url(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return "http://" + s.addrs[name]
}

func (s *inProc) reload(name string) error {
	n, err := s.get(name, false)
	if err != nil {
		return err
	}
	return n.srv.ReloadSnapshots()
}

func (s *inProc) kill(name string) error {
	n, err := s.get(name, true)
	if err != nil {
		return err
	}
	n.ln.kill()
	<-n.done
	return nil
}

// drain cancels Serve's context, as SIGTERM does, and wants nil back.
func (s *inProc) drain(name string) error {
	n, err := s.get(name, true)
	if err != nil {
		return err
	}
	n.cancel()
	return <-n.done
}

func (s *inProc) rollout(path string, replicas []string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = (&fleet.Controller{Replicas: replicas, Log: io.Discard}).Rollout(context.Background(), "lists", data)
	return err
}

// door serves name's handler on a listener of its own, counting the
// data-plane requests and firing the events from the handler of the one
// that reaches each mark.
func (s *inProc) door(name string, a *arms) (string, func(), error) {
	n, err := s.get(name, false)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var seen atomic.Int64
	ws := &wire.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			a.reached(seen.Add(1))
		}
		n.handler.ServeHTTP(w, r)
	})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ws.Run(ctx, ln, 5*time.Second, nil)
	}()
	return "http://" + ln.Addr().String(), func() { cancel(); <-done }, nil
}

func (s *inProc) stopAll() {
	s.mu.Lock()
	names := make([]string, 0, len(s.nodes))
	for name := range s.nodes {
		names = append(names, name)
	}
	s.mu.Unlock()
	for _, name := range names {
		s.kill(name)
	}
}

// killable is a listener that can die as a killed process's does: closed,
// with every connection it accepted, nothing drained.
type killable struct {
	net.Listener
	mu     sync.Mutex
	conns  []net.Conn
	killed bool
}

func (l *killable) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.killed {
		c.Close()
		return nil, net.ErrClosed
	}
	l.conns = append(l.conns, c)
	return c, nil
}

func (l *killable) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.killed = true
	l.Listener.Close()
	for _, c := range l.conns {
		c.Close()
	}
}

// procs is the stage of built binaries. Each process writes its address to
// a portfile and its log to a buffer that outlives restarts.
type procs struct {
	t        *testing.T
	bin, tmp string

	mu      sync.Mutex
	running map[string]*proc
	addrs   map[string]string
	logs    map[string]*logBuf
}

type proc struct {
	cmd  *exec.Cmd
	log  *logBuf
	done chan error // Wait's result
}

// boot runs adwars-serve for the configs the process rows use: plain, or
// with analytics spilling.
func (p *procs) boot(name string, cfg serve.Config) error {
	if cfg.Workers != 0 || cfg.Queue != 0 || cfg.QueueTimeout != 0 {
		return errors.New("the process pass boots plain or spilling replicas only")
	}
	args := []string{"-lists", cfg.ListsPath, "-model", cfg.ModelPath, "-replica", name}
	if cfg.Analytics != nil {
		args = append(args, "-analytics-spill", cfg.Analytics.SpillDir)
	}
	return p.start(name, "adwars-serve", args...)
}

func (p *procs) front(string, string, faults) error {
	return errors.New("the process pass has no fronts: a fault is injected around a Handler")
}

func (p *procs) gateway(backends []string) error {
	return p.start("gateway", "adwars-gateway", "-backends", strings.Join(backends, ","))
}

// start runs one binary on name's old address, or on an ephemeral one, and
// waits up to 10s for its portfile; a process that exits first died on
// startup.
func (p *procs) start(name, exe string, args ...string) error {
	p.mu.Lock()
	if p.running[name] != nil {
		p.mu.Unlock()
		return fmt.Errorf("%s is already running", name)
	}
	addr := p.addrs[name]
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	log := p.logs[name]
	if log == nil {
		log = &logBuf{}
		p.logs[name] = log
	}
	p.mu.Unlock()

	portfile := filepath.Join(p.tmp, name+".port")
	os.Remove(portfile)
	cmd := exec.Command(filepath.Join(p.bin, exe), append(args, "-addr", addr, "-portfile", portfile)...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		return err
	}
	pr := &proc{cmd: cmd, log: log, done: make(chan error, 1)}
	go func() { pr.done <- cmd.Wait() }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if b, err := os.ReadFile(portfile); err == nil && len(b) > 0 {
			p.mu.Lock()
			p.running[name] = pr
			p.addrs[name] = string(b)
			p.mu.Unlock()
			return nil
		}
		select {
		case err := <-pr.done:
			return fmt.Errorf("died on startup (%v):\n%s", err, log.String())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			<-pr.done
			return fmt.Errorf("no portfile within 10s:\n%s", log.String())
		}
	}
}

// get returns running name; take also removes it, for the caller to stop.
func (p *procs) get(name string, take bool) (*proc, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pr := p.running[name]
	if pr == nil {
		return nil, fmt.Errorf("%s is not running", name)
	}
	if take {
		delete(p.running, name)
	}
	return pr, nil
}

func (p *procs) url(name string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return "http://" + p.addrs[name]
}

// reload sends SIGHUP and reads the outcome from the next reload line the
// replica logs.
func (p *procs) reload(name string) error {
	pr, err := p.get(name, false)
	if err != nil {
		return err
	}
	const mark = "SIGHUP reload "
	before := strings.Count(pr.log.String(), mark)
	if err := pr.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		return err
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		log := pr.log.String()
		if strings.Count(log, mark) > before {
			line := log[strings.LastIndex(log, mark):]
			line, _, _ = strings.Cut(line, "\n")
			if strings.HasPrefix(line, mark+"ok") {
				return nil
			}
			return errors.New(line)
		}
	}
	return fmt.Errorf("no reload logged within 10s of SIGHUP:\n%s", pr.log.String())
}

func (p *procs) kill(name string) error {
	pr, err := p.get(name, true)
	if err != nil {
		return err
	}
	pr.cmd.Process.Kill()
	<-pr.done
	return nil
}

// drain sends SIGTERM and wants exit status 0 within 15s.
func (p *procs) drain(name string) error {
	pr, err := p.get(name, true)
	if err != nil {
		return err
	}
	if err := pr.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-pr.done:
		if err != nil {
			return fmt.Errorf("did not drain cleanly (%v):\n%s", err, pr.log.String())
		}
		return nil
	case <-time.After(15 * time.Second):
		pr.cmd.Process.Kill()
		<-pr.done
		return errors.New("still running 15s after SIGTERM")
	}
}

// rollout runs adwars-ctl and reads its verdict from the exit status: 2
// refused locally, 3 rolled back, 0 rolled out.
func (p *procs) rollout(path string, replicas []string) error {
	out, err := exec.Command(filepath.Join(p.bin, "adwars-ctl"), "-replicas", strings.Join(replicas, ","), "-push-lists", path).CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &exit) && exit.ExitCode() == 2:
		return fmt.Errorf("%w: %s", fleet.ErrBadArtifact, out)
	case errors.As(err, &exit) && exit.ExitCode() == 3:
		return fmt.Errorf("%w: %s", fleet.ErrRolledBack, out)
	}
	return fmt.Errorf("adwars-ctl: %v: %s", err, out)
}

// door is name's own URL; its events fire once the requests name has
// counted in /debug/vars since the window opened reach their marks.
func (p *procs) door(name string, a *arms) (string, func(), error) {
	url := p.url(name)
	base, err := countRequests(url)
	if err != nil {
		return "", nil, err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if n, err := countRequests(url); err == nil {
				a.reached(n - base)
			}
		}
	}()
	return url, func() { close(stop); <-done }, nil
}

// countRequests reads the data-plane requests a gateway or a replica has
// counted.
func countRequests(url string) (int64, error) {
	var vars struct {
		Gateway struct {
			Requests int64 `json:"requests"`
		} `json:"adwars_gateway"`
		Serve struct {
			Endpoints map[string]struct {
				Requests int64 `json:"requests"`
			} `json:"endpoints"`
		} `json:"adwars_serve"`
	}
	if err := getJSON(client, url+"/debug/vars", &vars); err != nil {
		return 0, err
	}
	n := vars.Gateway.Requests
	for _, ep := range vars.Serve.Endpoints {
		n += ep.Requests
	}
	return n, nil
}

// stopAll kills whatever a row left running and, when the row failed,
// attaches every process's log.
func (p *procs) stopAll() {
	p.mu.Lock()
	names := make([]string, 0, len(p.running))
	for name := range p.running {
		names = append(names, name)
	}
	p.mu.Unlock()
	for _, name := range names {
		p.kill(name)
	}
	if p.t.Failed() {
		for name, log := range p.logs {
			p.t.Logf("--- %s log:\n%s", name, log.String())
		}
	}
}

// logBuf is a process's stderr, written by the process's copier and read by
// the steps.
type logBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
