package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"adwars/internal/abp"
	"adwars/internal/antiadblock"
	"adwars/internal/ml"
)

// benchServer builds a server over a realistically sized compiled list
// (1k HTTP rules) and the fixture model, driven through the full handler
// stack (routing, admission, JSON) but without network I/O, so the
// numbers isolate serving cost.
func benchServer(b *testing.B) *Server {
	b.Helper()
	var lines []string
	for i := 0; i < 1000; i++ {
		lines = append(lines, fmt.Sprintf("||adserver%03d.example^$script", i%500))
		if i%10 == 0 {
			lines = append(lines, fmt.Sprintf("@@||adserver%03d.example/allowed$script", i%500))
		}
	}
	rules := make([]*abp.Rule, 0, len(lines))
	for _, line := range lines {
		r, err := abp.Parse(line)
		if err != nil {
			b.Fatalf("parse %q: %v", line, err)
		}
		rules = append(rules, r)
	}
	l := abp.NewList("bench", rules)
	s := New(Config{Workers: 4, Queue: 1024, QueueTimeout: time.Second})
	snap, err := ml.ParseModelSnapshot(testModelFile())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.SetModelSnapshot(snap); err != nil {
		b.Fatal(err)
	}
	if err := s.SetListsSnapshot(&abp.ListsSnapshot{Label: "bench", Lists: []*abp.List{l}}); err != nil {
		b.Fatal(err)
	}
	return s
}

// reportLatencies attaches p50/p99 custom metrics.
func reportLatencies(b *testing.B, lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
}

func benchDrive(b *testing.B, s *Server, path string, bodies [][]byte) {
	h := s.Handler()
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", path, bytes.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		lat = append(lat, time.Since(start))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	b.StopTimer()
	reportLatencies(b, lat)
}

// benchMatchBodies is a pool of single-match queries over the bench list:
// five in six name a listed ad server, and every fourth carries a query
// string whose & json.Marshal writes as an escape, as a Go client's would.
func benchMatchBodies() [][]byte {
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 256)
	for i := range bodies {
		u := fmt.Sprintf("http://adserver%03d.example/slot/%d/ad.js", rng.Intn(600), i)
		if i%4 == 3 {
			u += fmt.Sprintf("?v=%d&cb=%d", i, rng.Int63())
		}
		bodies[i], _ = json.Marshal(MatchQuery{URL: u, Type: "script", PageDomain: "news.example"})
	}
	return bodies
}

// BenchmarkServeMatch is the /v1/match handler alone: routing, admission,
// decode, probe, encode, no socket.
func BenchmarkServeMatch(b *testing.B) {
	b.ReportAllocs()
	benchDrive(b, benchServer(b), "/v1/match", benchMatchBodies())
}

// BenchmarkWireRoundTrip is the same request over a real loopback socket:
// Serve's own loop on one side, one kept-alive client connection writing a
// prepared request and reading the reply into a reused buffer on the other,
// so what it adds to BenchmarkServeMatch is the server half of the wire and
// two crossings of the kernel.
func BenchmarkWireRoundTrip(b *testing.B) {
	s := benchServer(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	bodies := benchMatchBodies()
	reqs := make([][]byte, len(bodies))
	for i, body := range bodies {
		reqs[i] = []byte(fmt.Sprintf("POST /v1/match HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	}
	br := bufio.NewReader(conn)
	post := &http.Request{Method: http.MethodPost}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
		resp, err := http.ReadResponse(br, post)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != 200 {
			b.Fatalf("status %d, %v", resp.StatusCode, err)
		}
	}
	b.StopTimer()
	conn.Close()
	stop()
	if err := <-served; err != nil {
		b.Fatal(err)
	}
}

func BenchmarkServeMatchBatch(b *testing.B) {
	s := benchServer(b)
	rng := rand.New(rand.NewSource(2))
	const batch = 64
	var req matchBatchRequest
	for i := 0; i < batch; i++ {
		req.Requests = append(req.Requests, MatchQuery{
			URL:        fmt.Sprintf("http://adserver%03d.example/slot/%d/ad.js", rng.Intn(600), i),
			Type:       "script",
			PageDomain: "news.example",
		})
	}
	body, _ := json.Marshal(req)
	benchDrive(b, s, "/v1/match/batch", [][]byte{body})
}

func BenchmarkServeClassify(b *testing.B) {
	s := benchServer(b)
	benchDrive(b, s, "/v1/classify", [][]byte{[]byte(antiadblock.ReferenceBlockAdBlock)})
}

func BenchmarkServeClassifyBatch(b *testing.B) {
	s := benchServer(b)
	rng := rand.New(rand.NewSource(3))
	var req classifyBatchRequest
	for i := 0; i < 16; i++ {
		if i%4 == 0 {
			req.Scripts = append(req.Scripts, antiadblock.ReferenceBlockAdBlock)
		} else {
			kind := antiadblock.BenignKinds()[i%3]
			req.Scripts = append(req.Scripts, antiadblock.BenignScript(kind, rng, antiadblock.GenOptions{}))
		}
	}
	body, _ := json.Marshal(req)
	benchDrive(b, s, "/v1/classify/batch", [][]byte{body})
}
