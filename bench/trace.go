package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

// Tracing is done from outside the program under test: a span is recorded
// around the client's round trip, around the gateway's public handler and
// around the server's public handler, all three joined by the X-Bench-Req
// header the client sets and the gateway forwards. A layer's self time is
// its span minus the child span inside it. Spans inside the program are a
// later change (ROADMAP item 5b).

type spanName uint8

const (
	spanClient  spanName = iota // the client's round trip
	spanGateway                 // fleet.Gateway.Handler(), child of client
	spanHandler                 // serve.Server.Handler(), child of gateway or client
	spanKinds
)

var spanNames = [spanKinds]string{"client", "fleet.gateway", "serve.handler"}

// span is one timed interval; parent follows from the name and the spans
// that share req.
type span struct {
	name       spanName
	req        uint64
	start, end int64 // ns on the process's monotonic clock
}

var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// recorder keeps spans in one preallocated slice; a writer claims a slot
// with an atomic add, so recording neither locks nor allocates. Spans past
// the capacity are counted, not kept.
type recorder struct {
	spans []span
	n     atomic.Int64
	// since is when the timed window starts: the client records no span for
	// a warm-up request, which leaves that request's chain incomplete.
	since int64
	// clients counts the clients that have drawn an identifier range.
	clients atomic.Uint64
}

// idBase gives a client a range of request identifiers no other client of
// this recorder has, in this slice of the run or any earlier one.
func (r *recorder) idBase() uint64 { return r.clients.Add(1) << 32 }

func newRecorder(capacity int) *recorder {
	return &recorder{spans: make([]span, capacity)}
}

func (r *recorder) add(s span) {
	if i := r.n.Add(1) - 1; int(i) < len(r.spans) {
		r.spans[i] = s
	}
}

func (r *recorder) recorded() []span {
	return r.spans[:min(int(r.n.Load()), len(r.spans))]
}

func (r *recorder) dropped() int64 {
	return max(0, r.n.Load()-int64(len(r.spans)))
}

// wrap records a span around h for every request that carries an
// identifier; health probes and set-up requests carry none.
func (r *recorder) wrap(name spanName, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		vs := req.Header[reqHeader]
		if len(vs) == 0 {
			h.ServeHTTP(w, req)
			return
		}
		id, err := strconv.ParseUint(vs[0], 10, 64)
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		start := nanotime()
		h.ServeHTTP(w, req)
		r.add(span{name: name, req: id, start: start, end: nanotime()})
	})
}

func (e *env) traceFile() string {
	if e.TraceOut != "" {
		return e.TraceOut
	}
	return filepath.Join(e.WorkDir, "spans.jsonl")
}

// writeJSONL writes the spans out once the run is over. gateway says whether
// the requests went through one, which decides the handler span's parent.
func (r *recorder) writeJSONL(path string, gateway bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range r.recorded() {
		parent := ""
		switch {
		case s.name == spanHandler && gateway:
			parent = spanNames[spanGateway]
		case s.name != spanClient:
			parent = spanNames[spanClient]
		}
		fmt.Fprintf(w, `{"name":%q,"start":%d,"end":%d,"parent":%q,"req":%d}`+"\n",
			spanNames[s.name], s.start, s.end, parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chains joins the spans of each request and returns, over the requests
// whose spans are all present, the mean duration of each span kind.
func (r *recorder) chains(wantGateway bool) (n int, meanNs [spanKinds]float64) {
	type chain struct {
		dur  [spanKinds]int64
		have [spanKinds]bool
	}
	byReq := make(map[uint64]*chain, len(r.recorded())/2)
	for _, s := range r.recorded() {
		c := byReq[s.req]
		if c == nil {
			c = &chain{}
			byReq[s.req] = c
		}
		c.dur[s.name], c.have[s.name] = s.end-s.start, true
	}
	var sum [spanKinds]float64
	for _, c := range byReq {
		if !c.have[spanClient] || !c.have[spanHandler] || c.have[spanGateway] != wantGateway {
			continue
		}
		n++
		for k := range sum {
			sum[k] += float64(c.dur[k])
		}
	}
	if n > 0 {
		for k := range sum {
			meanNs[k] = sum[k] / float64(n)
		}
	}
	return n, meanNs
}

// spanLayers turns the traced window's spans into layer self times. The
// layers below the client sum to the traced round-trip mean by
// construction over complete chains; trace.unattributed_ns is what the
// incomplete ones (a span dropped at capacity) leave over.
func spanLayers(res *result, g *rig, untracedMeanNs float64) {
	n, m := g.Rec.chains(g.Gateway != nil)
	if n == 0 {
		res.invalidate("traced window recorded no complete span chain")
		return
	}
	child := m[spanHandler]
	if g.Gateway != nil {
		child = m[spanGateway]
		res.set("fleet.hop_ns", m[spanGateway]-m[spanHandler], "ns")
	}
	res.set("trace.roundtrip_ns", m[spanClient], "ns")
	res.set("loopback.self_ns", m[spanClient]-child, "ns")
	res.set("serve.handler_ns", m[spanHandler], "ns")
	if d := g.Rec.dropped(); d > 0 {
		res.note("%d spans past the recorder's capacity were dropped", d)
	}
	res.note("%d complete span chains; untraced round-trip mean %.0f ns", n, untracedMeanNs)
}

// clientLayers reports what the clients and the Go runtime saw over the
// untraced slices: throughput, the tail, CPU and allocations per correct
// reply. These are means and tails over whole slices, so on shared cores
// they wander with the machine — which is why they are layer figures and
// not bounded end-to-end ones. Clients and servers share the heap, so the
// client's allocations and CPU are in these numbers — the same on both
// sides of any comparison.
func clientLayers(res *result, plain, traced *window) {
	n := float64(plain.ok())
	if n == 0 || traced.ok() == 0 {
		res.invalidate("a traced run's slices saw no correct reply")
		return
	}
	res.set("client.samples", float64(traced.ok()), "count")
	res.set("client.rps", n/plain.seconds, "1/s")
	res.set("client.p99_us", percentile(sorted(plain.durs), 0.99)/1e3, "us")
	res.set("process.cpu_us_per_req", float64(plain.cpu.Microseconds())/n, "us")
	res.set("process.allocs_per_req", float64(plain.mallocs)/n, "count")
	res.set("process.bytes_per_req", float64(plain.alloced)/n, "B")
	if plain.cpu > 0 {
		res.set("process.gc_cpu_frac", plain.gcCPU/plain.cpu.Seconds(), "ratio")
	}
	res.set("trace.overhead_frac", traced.latencyUs()/plain.latencyUs()-1, "ratio")
}
