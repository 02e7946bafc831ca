package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"adwars/internal/abp"
	"adwars/internal/analytics"
	"adwars/internal/fleet"
	"adwars/internal/serve"
)

const (
	matchPath = "/v1/match"
	jsonType  = "application/json"
	// oracleSample is how many pool requests are checked against the linear
	// scan before timing; probeBlock is the span granularity of the
	// sequential probe loops.
	oracleSample = 256
	probeBlock   = 1024
)

// probeOut is what one request did across the served lists.
type probeOut struct {
	decision abp.Decision // merged: an exception anywhere beats a block
	hits     int          // matching rules, all lists
	wins     int          // lists with a verdict
	hotWins  int          // of those, won by a hot-tier rule
}

// probe is the data plane's use of abp through its public functions: per
// list one AppendHits, DecideHits on the result, RecordUsage of the winner.
func probe(lists []*abp.List, req abp.Request, buf *[]abp.Hit) probeOut {
	var out probeOut
	blocked, allowed := false, false
	for _, l := range lists {
		*buf = l.AppendHits((*buf)[:0], req)
		dec, _, ord := abp.DecideHits(*buf)
		l.RecordUsage(ord)
		out.hits += len(*buf)
		switch dec {
		case abp.Blocked:
			blocked = true
		case abp.Allowed:
			allowed = true
		default:
			continue
		}
		out.wins++
		if l.IsHotRule(ord) {
			out.hotWins++
		}
	}
	switch {
	case allowed:
		out.decision = abp.Allowed
	case blocked:
		out.decision = abp.Blocked
	}
	return out
}

func toRequest(q *serve.MatchQuery) abp.Request {
	return abp.Request{URL: q.URL, Type: abp.RequestType(q.Type), PageDomain: q.PageDomain}
}

// verdictPrefix is how a /v1/match reply with this verdict begins.
func verdictPrefix(d abp.Decision) []byte {
	return []byte(fmt.Sprintf(`{"blocked":%t,"decision":%q,`, d == abp.Blocked, d.String()))
}

// linearVerdict is the oracle: every rule of every list tried in turn.
func linearVerdict(lists []*abp.List, req abp.Request) abp.Decision {
	blocked := false
	for _, l := range lists {
		switch d, _ := l.MatchRequestLinear(req); d {
		case abp.Allowed:
			return abp.Allowed
		case abp.Blocked:
			blocked = true
		}
	}
	if blocked {
		return abp.Blocked
	}
	return abp.NoMatch
}

// matchCorpus is what a match workload serves and asks.
type matchCorpus struct {
	Flat   []*abp.List // untiered compile of the served texts
	Served []*abp.List // what the snapshot holds: Flat, or its tiered compile
	Pool   []serve.MatchQuery
	Bodies [][]byte
	Want   [][]byte
	Tiered bool
}

// buildMatchCorpus generates the lists and the pool for a match workload,
// precomputes every expected verdict through the public probe and checks a
// sample of them against the oracle. With easy rules the EasyList-scale
// list joins the paper lists and everything is served tiered, hot = the
// rules that fired for tierWarmup requests drawn with seed+1.
func buildMatchCorpus(seed int64, easy, tierWarmup int) (*matchCorpus, error) {
	texts, uni := paperLists(seed)
	if easy > 0 {
		texts = append(texts, easyList(seed, uni, easy))
	}
	flat, err := buildLists(texts)
	if err != nil {
		return nil, err
	}
	c := &matchCorpus{Flat: flat, Served: flat, Tiered: easy > 0}
	listed := listDomains(flat)
	if c.Tiered {
		c.Served = compileTiered(flat, firedInWarmup(flat, requestPool(seed+1, uni, listed, tierWarmup)))
	}
	for _, l := range c.Served {
		l.EnableUsage() // the server counts usage; so does the probe loop
	}
	c.Pool = requestPool(seed, uni, listed, poolSize)
	c.Bodies = marshalPool(c.Pool)
	c.Want = make([][]byte, len(c.Pool))
	var buf []abp.Hit
	for i := range c.Pool {
		c.Want[i] = verdictPrefix(probe(c.Served, toRequest(&c.Pool[i]), &buf).decision)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < oracleSample; k++ {
		i := rng.Intn(len(c.Pool))
		if want := verdictPrefix(linearVerdict(flat, toRequest(&c.Pool[i]))); string(want) != string(c.Want[i]) {
			return nil, fmt.Errorf("oracle: request %d (%s): probe says %s, linear scan says %s",
				i, c.Pool[i].URL, c.Want[i], want)
		}
	}
	return c, nil
}

// firedInWarmup says, per list and rule ordinal, whether the rule won a
// verdict for any of the warm-up requests — the usage dump adwars-compact
// turns into a hot tier.
func firedInWarmup(flat []*abp.List, warm []serve.MatchQuery) [][]bool {
	for _, l := range flat {
		l.EnableUsage()
	}
	var buf []abp.Hit
	for i := range warm {
		probe(flat, toRequest(&warm[i]), &buf)
	}
	fired := make([][]bool, len(flat))
	for i, l := range flat {
		counts := l.Usage().Counts()
		fired[i] = make([]bool, len(counts))
		for ord, n := range counts {
			fired[i][ord] = n > 0
		}
	}
	return fired
}

// compileTiered compiles each list tiered with the given hot sets.
func compileTiered(lists []*abp.List, hot [][]bool) []*abp.List {
	out := make([]*abp.List, len(lists))
	for i, l := range lists {
		keep := hot[i]
		out[i] = l.CompileTiered(func(ord int) bool { return keep[ord] })
	}
	return out
}

// saveSnapshot writes the served lists the way they are shipped: flat
// compiled (v3) or tiered (v4).
func (c *matchCorpus) saveSnapshot(path string, seed int64) error {
	snap := &abp.ListsSnapshot{Label: fmt.Sprintf("bench seed %d", seed), Lists: c.Served}
	if c.Tiered {
		return abp.SaveListsSnapshotTiered(path, snap)
	}
	return abp.SaveListsSnapshotCompiled(path, snap)
}

// matchRig boots the server(s) for a match workload: one server, or with
// replicas > 1 that many behind a gateway. A traced run adds the
// span-recording twin of each public handler on its own port.
func matchRig(e *env, dir string, easy, replicas int) (*rig, error) {
	c, err := buildMatchCorpus(e.Seed, easy, e.TierWarmup)
	if err != nil {
		return nil, err
	}
	snapPath := filepath.Join(dir, "lists.snap")
	if err := c.saveSnapshot(snapPath, e.Seed); err != nil {
		return nil, err
	}
	g := &rig{Path: matchPath, ContentType: jsonType, Bodies: c.Bodies, Want: c.Want}
	if e.Trace {
		g.Rec = newRecorder(int(e.Seconds/2+1) * 150_000)
	}
	ok := false
	defer func() {
		if !ok {
			g.close()
		}
	}()
	var urls, tracedURLs []string
	for k := 0; k < replicas; k++ {
		id := ""
		if replicas > 1 {
			id = fmt.Sprintf("r%d", k)
		}
		s, n, err := bootServer(servingConfig(snapPath, "", id))
		if err != nil {
			return nil, err
		}
		g.Servers = append(g.Servers, s)
		g.closers = append(g.closers, n.stop)
		urls = append(urls, n.URL)
		if e.Trace {
			tn, err := serveHandler(g.Rec.wrap(spanHandler, s.Handler()))
			if err != nil {
				return nil, err
			}
			g.closers = append(g.closers, tn.stop)
			tracedURLs = append(tracedURLs, tn.URL)
		}
	}
	g.Target = urls[0]
	if e.Trace {
		g.Traced = tracedURLs[0]
	}
	if replicas > 1 {
		if err := addGateway(g, e, urls, tracedURLs); err != nil {
			return nil, err
		}
		// The gateway's reply must be the replica's own, byte for byte: ask
		// replica 0 in-process and expect exactly that through the hop.
		for i, body := range g.Bodies {
			status, direct := inProcess(g.Servers[0].Handler(), matchPath, jsonType, body)
			if status != 200 || !bytes.HasPrefix(direct, g.Want[i]) {
				return nil, fmt.Errorf("replica reply %d: status %d, %.120q, want prefix %q", i, status, direct, g.Want[i])
			}
			g.Want[i] = direct
		}
	}
	g.layers = func(r *result) { matchLayers(r, e, g, c, urls[0]) }
	ok = true
	return g, nil
}

// addGateway puts fleet.Gateway in front of the replicas — hedging off,
// health loop on — and waits until it has seen every replica healthy. The
// gateway shuts down before the replicas, so its idle connections are
// closed by the time they drain. A traced run gets a second gateway whose
// handler and backends are the span-recording twins.
func addGateway(g *rig, e *env, urls, tracedURLs []string) error {
	gw, err := fleet.NewGateway(fleet.GatewayConfig{Backends: urls})
	if err != nil {
		return err
	}
	n, err := listen(gw.Serve)
	if err != nil {
		return err
	}
	g.Gateway, g.Target = gw, n.URL
	g.closers = append([]func() error{n.stop}, g.closers...)
	if err := awaitHealthy(gw, len(urls)); err != nil {
		return err
	}
	if !e.Trace {
		return nil
	}
	tgw, err := fleet.NewGateway(fleet.GatewayConfig{Backends: tracedURLs})
	if err != nil {
		return err
	}
	hctx, stopHealth := context.WithCancel(context.Background())
	healthDone := make(chan struct{})
	go func() {
		defer close(healthDone)
		tgw.Pool().HealthLoop(hctx)
	}()
	tn, err := serveHandler(g.Rec.wrap(spanGateway, tgw.Handler()))
	if err != nil {
		stopHealth()
		<-healthDone
		return err
	}
	g.Traced = tn.URL
	g.closers = append([]func() error{func() error {
		stopHealth()
		<-healthDone
		return tn.stop()
	}}, g.closers...)
	return awaitHealthy(tgw, len(tracedURLs))
}

// awaitHealthy waits until the gateway's health loop has probed every
// backend and found it ready.
func awaitHealthy(gw *fleet.Gateway, want int) error {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		ready := 0
		for _, b := range readGatewayMetrics(gw).Backends {
			if b.Healthy && b.Breaker != "open" {
				ready++
			}
		}
		if ready == want && learnedIDs(gw) == want {
			return nil
		}
	}
	return errors.New("gateway never saw every replica healthy")
}

// learnedIDs counts the backends whose replica identity the health loop
// has read: backends start out "healthy" before any probe, so identity is
// what shows a probe has actually come back.
func learnedIDs(gw *fleet.Gateway) int {
	n := 0
	for _, b := range gw.Pool().Backends() {
		if b.ID() != b.URL {
			n++
		}
	}
	return n
}

func runMatchPaper(_ context.Context, e *env) (*result, error) {
	return runServing(e, func(dir string) (*rig, error) { return matchRig(e, dir, 0, 1) })
}

func runMatchEasylist(_ context.Context, e *env) (*result, error) {
	return runServing(e, func(dir string) (*rig, error) { return matchRig(e, dir, e.EasyRules, 1) })
}

func runGatewayMatchPaper(_ context.Context, e *env) (*result, error) {
	return runServing(e, func(dir string) (*rig, error) { return matchRig(e, dir, 0, 2) })
}

// ---- sequential layer probes of the match workloads ----

// timeBlocks calls fn over a pool of n for about budget (three blocks at
// least), a span per block of calls, and returns the steady ns per call and
// the mean allocations per call.
func timeBlocks(n, block int, budget time.Duration, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	var perCall []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calls, i := 0, 0
	for start := time.Now(); time.Since(start) < budget || len(perCall) < 3; {
		t0 := nanotime()
		for k := 0; k < block; k++ {
			fn(i)
			if i++; i == n {
				i = 0
			}
		}
		perCall = append(perCall, float64(nanotime()-t0)/float64(block))
		calls += block
	}
	runtime.ReadMemStats(&m1)
	return steady(perCall), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

func matchLayers(r *result, e *env, g *rig, c *matchCorpus, directURL string) {
	var buf []abp.Hit
	reqs := make([]abp.Request, len(c.Pool))
	for i := range c.Pool {
		reqs[i] = toRequest(&c.Pool[i])
	}

	// Descriptors: exact counts over the pool. A change here means the
	// workload changed, not the code.
	var hits, matched, wins, hotWins int
	for i := range reqs {
		p := probe(c.Served, reqs[i], &buf)
		hits += p.hits
		wins += p.wins
		hotWins += p.hotWins
		if p.decision != abp.NoMatch {
			matched++
		}
	}
	r.set("abp.hits_per_req", float64(hits)/float64(len(reqs)), "count")
	r.set("abp.match_frac", float64(matched)/float64(len(reqs)), "ratio")
	if wins > 0 {
		r.set("abp.hot_conclusive_frac", float64(hotWins)/float64(wins), "ratio")
	}
	var hot, cold int
	for _, l := range c.Served {
		st := l.TierStats()
		hot += st.HotBytes
		cold += st.ColdBytes
	}
	r.set("abp.hot_bytes", float64(hot), "B")
	r.set("abp.cold_bytes", float64(cold), "B")

	ns, allocs := timeBlocks(len(reqs), probeBlock, e.LayerBudget, func(i int) { probe(c.Served, reqs[i], &buf) })
	r.set("abp.probe_ns", ns, "ns")
	r.set("abp.probe_allocs", allocs, "count")
	ns, _ = timeBlocks(len(reqs), probeBlock, e.LayerBudget, func(i int) { probe(c.Flat, reqs[i], &buf) })
	r.set("abp.probe_flat_ns", ns, "ns")

	// The handler alone, in-process and sequential: its allocations, and
	// the batch endpoint's cost per item for 64 items from the pool.
	h := g.Servers[0].Handler()
	inProcessAllocs := inProcessOverhead()
	_, allocs = timeBlocks(len(g.Bodies), probeBlock, e.LayerBudget, func(i int) { inProcess(h, matchPath, jsonType, g.Bodies[i]) })
	r.set("serve.handler_allocs", allocs-inProcessAllocs, "count")
	batch := batchBody(c.Pool[:64])
	ns, allocs = timeBlocks(1, 16, e.LayerBudget, func(int) { inProcess(h, matchPath+"/batch", jsonType, batch) })
	r.set("serve.batch_item_ns", ns/64, "ns")
	r.set("serve.batch_item_allocs", (allocs-inProcessAllocs)/64, "count")

	// analytics.Collector.Record on its own, with the production settings.
	if col, err := analytics.NewCollector(analytics.Config{SampleRate: 1}); err != nil {
		r.invalidate("analytics collector: %v", err)
	} else {
		ev := analytics.Event{Kind: analytics.KindMatch, Verdict: analytics.VerdictBlocked, Domain: "example.com", Rule: "||example.com^"}
		ns, _ = timeBlocks(1, probeBlock, e.LayerBudget/2, func(int) {
			ev.UnixNano = nanotime()
			col.Record(ev)
		})
		r.set("analytics.record_ns", ns, "ns")
		col.Close() // in-memory only: nothing to flush, nothing to fail
	}

	if g.Gateway != nil {
		// The same stream straight at replica 0, so the hop's allocations
		// are gateway-run minus direct-run.
		gwAllocs := r.Metrics["process.allocs_per_req"].Value
		direct := measure(g, directURL, nil, 0, secs(min(1, e.Seconds/4)))
		if direct.ok() > 0 {
			d := float64(direct.mallocs) / float64(direct.ok())
			r.set("fleet.hop_allocs", gwAllocs-d, "count")
			r.set("loopback.allocs", d-r.Metrics["serve.handler_allocs"].Value, "count")
		}
	} else {
		r.set("loopback.allocs", r.Metrics["process.allocs_per_req"].Value-r.Metrics["serve.handler_allocs"].Value, "count")
	}
}

// inProcessOverhead is what inProcess itself allocates per call (request,
// reader, header map, writer); it is taken off a handler's count.
func inProcessOverhead() float64 {
	nop := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	_, a := timeBlocks(1, probeBlock, 10*time.Millisecond, func(int) { inProcess(nop, "/", jsonType, nil) })
	return a
}

func batchBody(qs []serve.MatchQuery) []byte {
	b := []byte(`{"requests":[`)
	for i, body := range marshalPool(qs) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, body...)
	}
	return append(b, "]}"...)
}
