package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
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
	snap, err := ml.ParseModelSnapshot([]byte(benchModelJSON))
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

const benchModelJSON = `{
  "format": "adwars-model",
  "version": 1,
  "classifier": "adaboost",
  "feature_set": "keyword",
  "vocab": ["Identifier:offsetHeight", "Identifier:offsetWidth"],
  "model": {
    "alphas": [2],
    "models": [{"kernel": "linear", "bias": -1.5, "coefs": [1], "vectors": [[0, 1]]}]
  }
}`

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
