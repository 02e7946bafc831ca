package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"syscall"
	"time"

	"adwars/internal/analytics"
	"adwars/internal/degrade"
	"adwars/internal/fleet"
	"adwars/internal/serve"
)

// reqHeader carries the request identifier the traced run joins spans on.
const reqHeader = "X-Bench-Req"

// servingConfig is the production-shaped configuration every serving
// workload boots its servers with: usage counters on (the default), every
// decision recorded by analytics without spill, the overload governor on at
// its defaults.
func servingConfig(listsPath, modelPath, replica string) serve.Config {
	return serve.Config{
		ListsPath: listsPath,
		ModelPath: modelPath,
		Workers:   runtime.GOMAXPROCS(0),
		ReplicaID: replica,
		Analytics: &analytics.Config{SampleRate: 1},
		Degrade:   &degrade.Config{},
	}
}

// node is one server started in-process on a loopback port through its
// public entry point, the way its command starts it.
type node struct {
	URL  string
	stop func() error
}

// listen starts serve on a fresh 127.0.0.1 port; stop cancels it and waits
// for it to drain.
func listen(serve func(context.Context, net.Listener) error) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln) }()
	return &node{
		URL: "http://" + ln.Addr().String(),
		stop: func() error {
			cancel()
			return <-done
		},
	}, nil
}

// bootServer is adwars-serve's boot: New, ReloadSnapshots from the files
// the benchmark wrote, Serve.
func bootServer(cfg serve.Config) (*serve.Server, *node, error) {
	s := serve.New(cfg)
	if err := s.AnalyticsError(); err != nil {
		return nil, nil, err
	}
	if err := s.ReloadSnapshots(); err != nil {
		return nil, nil, fmt.Errorf("loading snapshots: %w", err)
	}
	n, err := listen(s.Serve)
	return s, n, err
}

// serveHandler runs the benchmark's own http.Server over h, for the traced
// run's wrapped handlers.
func serveHandler(h http.Handler) (*node, error) {
	return listen(func(ctx context.Context, ln net.Listener) error {
		hs := &http.Server{Handler: h}
		errc := make(chan error, 1)
		go func() { errc <- hs.Serve(ln) }()
		select {
		case err := <-errc:
			return err
		case <-ctx.Done():
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	})
}

// rig is a serving workload ready for traffic.
type rig struct {
	Path        string // endpoint, e.g. /v1/match
	ContentType string
	Bodies      [][]byte // request pool, pre-marshalled
	Want        [][]byte // per body: the prefix a correct 200 reply starts with
	Target      string   // base URL the untraced clients hit
	Traced      string   // base URL of the span-recording twin (traced runs)
	Servers     []*serve.Server
	Gateway     *fleet.Gateway
	Rec         *recorder
	// closers run in order at teardown; each waits for its server to drain.
	closers []func() error
	// layers runs the workload's sequential layer probes (traced runs).
	layers func(r *result)
}

func (g *rig) close() error {
	var first error
	for _, c := range g.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	g.closers = nil
	return first
}

// clientTotals is what one closed-loop client saw in the timed window.
type clientTotals struct {
	attempted, failed int64
	firstFailure      string
	durs              []float64 // ns, every correct reply
	// best is, per pool entry, the fastest correct round trip in ns (0 = none).
	best []float64
}

// client is one closed-loop caller: it sends its next request only after
// the previous reply, as an extension or the gateway waits for a verdict.
// Its cost is small and constant: the body is already marshalled, the reply
// is read into a reused buffer and checked by prefix compare, nothing is
// decoded.
type client struct {
	hc     *http.Client
	url    string
	ctype  string
	buf    []byte
	idBuf  []byte
	rec    *recorder // nil when untraced
	nextID uint64
}

func (c *client) do(body, want []byte) (ok bool, failure string) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return false, err.Error()
	}
	req.Header["Content-Type"] = []string{c.ctype}
	var id uint64
	var start int64
	if c.rec != nil {
		c.nextID++
		id = c.nextID
		c.idBuf = strconv.AppendUint(c.idBuf[:0], id, 10)
		req.Header[reqHeader] = []string{string(c.idBuf)}
		start = nanotime()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err.Error()
	}
	n := 0
	for {
		if n == len(c.buf) {
			c.buf = append(c.buf, make([]byte, len(c.buf))...)
		}
		m, rerr := resp.Body.Read(c.buf[n:])
		n += m
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			resp.Body.Close()
			return false, rerr.Error()
		}
	}
	resp.Body.Close()
	if c.rec != nil && start >= c.rec.since {
		c.rec.add(span{name: spanClient, req: id, start: start, end: nanotime()})
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("status %d: %.120s", resp.StatusCode, c.buf[:n])
	}
	if !bytes.HasPrefix(c.buf[:n], want) {
		return false, fmt.Sprintf("reply %.120q does not start with %.120q", c.buf[:n], want)
	}
	return true, ""
}

// load drives g.Bodies round-robin from concurrency() clients against base
// for warm-up + window and returns what each client saw in the window.
// Client k starts at the k-th fraction of the pool, so the clients do not
// march in step.
func load(g *rig, base string, rec *recorder, warmup, window time.Duration) []clientTotals {
	c := concurrency()
	tr := &http.Transport{MaxIdleConns: c, MaxIdleConnsPerHost: c, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	totals := make([]clientTotals, c)
	t0 := time.Now().Add(warmup)
	deadline := t0.Add(window)
	var wg sync.WaitGroup
	for k := 0; k < c; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := &client{hc: hc, url: base + g.Path, ctype: g.ContentType, buf: make([]byte, 16<<10), rec: rec}
			if rec != nil {
				cl.nextID = rec.idBase()
			}
			tot := &totals[k]
			tot.durs = make([]float64, 0, 1<<16)
			tot.best = make([]float64, len(g.Bodies))
			i := k * len(g.Bodies) / c
			for now := time.Now(); now.Before(deadline); {
				ok, failure := cl.do(g.Bodies[i], g.Want[i])
				end := time.Now()
				switch d := float64(end.Sub(now)); {
				case !end.After(t0): // warm-up
				case ok:
					tot.attempted++
					tot.durs = append(tot.durs, d)
					if tot.best[i] == 0 || d < tot.best[i] {
						tot.best[i] = d
					}
				default:
					tot.attempted++
					tot.failed++
					if tot.firstFailure == "" {
						tot.firstFailure = failure
					}
				}
				now = end
				if i++; i == len(g.Bodies) {
					i = 0
				}
			}
		}(k)
	}
	wg.Wait()
	return totals
}

// procSnap is the process's resource use at an instant.
type procSnap struct {
	cpu time.Duration // user + system, getrusage
	mem runtime.MemStats
	// gcCPU is the runtime's estimate of the CPU seconds the collector used.
	gcCPU float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on a supported platform
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapProc() procSnap {
	p := procSnap{cpu: cpuTime()}
	runtime.ReadMemStats(&p.mem)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	return p
}

// liveHeapMB is HeapAlloc after a collection: what the workload keeps.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // the second pass frees what finalizers of the first released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// window is one measured closed-loop window, or several joined.
type window struct {
	attempted, failed int64
	firstFailure      string
	seconds           float64
	durs              []float64 // ns, every correct reply
	best              []float64 // ns, per pool entry (0 = never answered)
	// What the process did meanwhile.
	cpu              time.Duration
	mallocs, alloced uint64
	gcCPU            float64
}

// latencyUs is the benchmark's latency figure: each distinct request of the
// pool at its fastest, averaged over the pool. On cores shared with other
// tenants slow spells last seconds and calm ones milliseconds, always
// towards slower, so the median round trip of a window wanders by a quarter
// from run to run; a request's fastest of its dozens of round trips falls in
// a calm spell nearly always, and averaging over the whole pool keeps every
// kind of request in the figure. A change to the program moves every round
// trip, the fastest included.
func (w *window) latencyUs() float64 {
	sum, n := 0.0, 0
	for _, b := range w.best {
		if b > 0 {
			sum += b
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1e3
}

func (w *window) ok() int64 { return int64(len(w.durs)) }

func (w *window) meanNs() float64 {
	sum := 0.0
	for _, d := range w.durs {
		sum += d
	}
	return sum / float64(max(1, len(w.durs)))
}

// join adds b to w, as if the two had been measured as one window.
func (w *window) join(b window) {
	w.attempted += b.attempted
	w.failed += b.failed
	if w.firstFailure == "" {
		w.firstFailure = b.firstFailure
	}
	w.seconds += b.seconds
	w.durs = append(w.durs, b.durs...)
	if w.best == nil {
		w.best = make([]float64, len(b.best))
	}
	for i, d := range b.best {
		if d > 0 && (w.best[i] == 0 || d < w.best[i]) {
			w.best[i] = d
		}
	}
	w.cpu += b.cpu
	w.mallocs += b.mallocs
	w.alloced += b.alloced
	w.gcCPU += b.gcCPU
}

// measure runs one warm-up + window against base.
func measure(g *rig, base string, rec *recorder, warmup, win time.Duration) window {
	if rec != nil {
		rec.since = nanotime() + int64(warmup)
	}
	atStart := make(chan procSnap, 1) // resource use when the warm-up ends
	time.AfterFunc(warmup, func() { atStart <- snapProc() })
	totals := load(g, base, rec, warmup, win)
	after, before := snapProc(), <-atStart
	var w window
	for _, t := range totals {
		w.join(window{attempted: t.attempted, failed: t.failed, firstFailure: t.firstFailure, durs: t.durs, best: t.best})
	}
	w.seconds = win.Seconds()
	w.cpu = after.cpu - before.cpu
	w.mallocs = after.mem.Mallocs - before.mem.Mallocs
	w.alloced = after.mem.TotalAlloc - before.mem.TotalAlloc
	w.gcCPU = after.gcCPU - before.gcCPU
	return w
}

// runServing is the body of every serving workload: set up (several times,
// for a steady setup_s), measure untraced, and on a traced run measure
// again through the span-recording twin and probe the layers one by one.
func runServing(e *env, setup func(dir string) (*rig, error)) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	g, err := timedSetups(e, res, setup)
	if err != nil {
		return nil, err
	}
	defer g.close()
	if e.Sabotage {
		for i := 0; i < len(g.Want); i += 64 { // every client meets one soon
			g.Want[i] = []byte(`{"sabotaged":`)
		}
	}

	warm, win := secs(e.Warmup), secs(e.Seconds)
	if !e.Trace {
		w := measure(g, g.Target, nil, warm, win)
		res.Attempted, res.Failed = w.attempted, w.failed
		if w.firstFailure != "" {
			res.note("first failure: %s", w.firstFailure)
		}
		checkHealth(g, res)
		res.set("latency_us", w.latencyUs(), "us")
		res.note("%d correct replies from %d closed-loop clients over %.1fs: %.0f/s, mean round trip %.1f us",
			w.ok(), concurrency(), win.Seconds(), float64(w.ok())/win.Seconds(), w.meanNs()/1e3)
		return res, nil
	}

	// Traced: the window is cut into slices that alternate between the
	// servers' own listeners and their span-recording twins, so a slow
	// spell of the machine falls on both sides of trace.overhead_frac.
	var plain, traced window
	slice := win / (2 * tracePairs)
	for k := 0; k < tracePairs; k++ {
		plain.join(measure(g, g.Target, nil, warm, slice))
		traced.join(measure(g, g.Traced, g.Rec, warm/4, slice))
		warm = secs(e.Warmup) / 4 // later slices only reconnect
	}
	res.Attempted, res.Failed = plain.attempted+traced.attempted, plain.failed+traced.failed
	if f := plain.firstFailure + traced.firstFailure; f != "" {
		res.note("first failure: %s", f)
	}
	checkHealth(g, res)
	clientLayers(res, &plain, &traced)
	serverLayers(res, g)
	spanLayers(res, g, plain.meanNs())
	g.layers(res)
	finishLayers(res)
	if err := g.Rec.writeJSONL(e.traceFile(), g.Gateway != nil); err != nil {
		return nil, err
	}
	return res, nil
}

// tracePairs is how many untraced/traced slice pairs a traced run makes.
const tracePairs = 3

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Set-up is repeated e.Setups times for a steady median, with two limits: a
// set-up that takes seconds is steady after one measurement, so repetition
// stops once setupBudget is spent; one that takes milliseconds is not
// steady after three, so repetition goes on until setupFloor is.
const (
	setupBudget = 4 * time.Second
	setupFloor  = 300 * time.Millisecond
)

// timedSetups runs setup repeatedly (see setupBudget), each time into its
// own directory; it keeps the last rig and reports the median set-up time
// and the live heap once set-up is over.
func timedSetups(e *env, res *result, setup func(dir string) (*rig, error)) (*rig, error) {
	var g *rig
	var took []float64
	for i, begin := 0, time.Now(); ; i++ {
		if spent := time.Since(begin); i > 0 && (spent >= setupBudget || i >= e.Setups && spent >= setupFloor) {
			break
		}
		if g != nil {
			if err := g.close(); err != nil {
				return nil, fmt.Errorf("set-up %d teardown: %w", i-1, err)
			}
		}
		dir := fmt.Sprintf("%s/setup%d", e.WorkDir, i)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if g, err = setup(dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
	}
	if !e.Trace { // traced runs report layers only
		res.setSpread("setup_s", median(took), quartileSpread(took), "s")
		res.set("heap_mb", liveHeapMB(), "MB")
	}
	return g, nil
}

// checkHealth reads every server's own instruments after the untraced
// window and invalidates the run if anything browned out, shed, dropped or
// failed over: a closed loop with no more clients than workers must never
// push a server that far, so a reading taken while it did measures
// something else.
func checkHealth(g *rig, res *result) {
	for i, s := range g.Servers {
		if d := s.Degrade().Snapshot(); d.PeakLevel > 0 {
			res.invalidate("server %d: governor reached L%d (%d transitions)", i, d.PeakLevel, d.Transitions)
		}
		m := readServeMetrics(s)
		for ep, st := range m.Endpoints {
			if st.Shed > 0 {
				res.invalidate("server %d: %s shed %d requests", i, ep, st.Shed)
			}
		}
		if v := s.Analytics().Vars(); v.Dropped > 0 {
			res.invalidate("server %d: analytics dropped %d events", i, v.Dropped)
		}
	}
	if g.Gateway != nil {
		m := readGatewayMetrics(g.Gateway)
		if m.Retries > 0 || m.Failovers > 0 || m.NoBackend > 0 {
			res.invalidate("gateway: %d retries, %d failovers, %d no-backend replies", m.Retries, m.Failovers, m.NoBackend)
		}
	}
}

// serveMetrics is the part of Server.Metrics() the benchmark reads.
type serveMetrics struct {
	Endpoints map[string]struct {
		Requests uint64 `json:"requests"`
		Errors   uint64 `json:"errors"`
		Shed     uint64 `json:"shed"`
		Latency  struct {
			Count  uint64 `json:"count"`
			MeanNs uint64 `json:"mean_ns"`
		} `json:"latency"`
	} `json:"endpoints"`
}

func readServeMetrics(s *serve.Server) serveMetrics {
	var m serveMetrics
	mustUnmarshal(s.Metrics().String(), &m)
	return m
}

// gatewayMetrics is the part of Gateway.Metrics() the benchmark reads.
type gatewayMetrics struct {
	Requests  uint64 `json:"requests"`
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
	Hedges    uint64 `json:"hedges"`
	NoBackend uint64 `json:"no_backend_5xx"`
	Backends  []struct {
		Healthy  bool   `json:"healthy"`
		Breaker  string `json:"breaker"`
		Requests uint64 `json:"requests"`
	} `json:"backends"`
}

func readGatewayMetrics(g *fleet.Gateway) gatewayMetrics {
	var m gatewayMetrics
	mustUnmarshal(g.Metrics().String(), &m)
	return m
}

func mustUnmarshal(doc string, v any) {
	if err := json.Unmarshal([]byte(doc), v); err != nil {
		panic(fmt.Sprintf("bench: a metrics tree is not JSON: %v", err)) // the trees render themselves
	}
}

// inProcess sends one request through a handler without a socket and
// returns status and body: how set-up learns what a correct reply is.
func inProcess(h http.Handler, path, ctype string, body []byte) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // a constant path always parses
	}
	req.Header.Set("Content-Type", ctype)
	w := &memWriter{header: http.Header{}}
	h.ServeHTTP(w, req)
	return w.status, w.body.Bytes()
}

// memWriter is the smallest http.ResponseWriter: it keeps what was written.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(s int)   { w.status = s }
func (w *memWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}
