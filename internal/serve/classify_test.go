package serve

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"adwars/internal/antiadblock"
)

// classifyAllocScripts are the two shapes /v1/classify exists for: the
// BlockAdBlock template as its vendor serves it, and the same detector
// family inside an eval("…") payload the unpacker has to parse again.
func classifyAllocScripts(t *testing.T) (plain, packed string) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	vendor := antiadblock.VendorByName("BlockAdBlock")
	plain = antiadblock.VendorScript(vendor, "", "notice", rng, antiadblock.GenOptions{})
	for !strings.HasPrefix(packed, `eval("`) { // one pack in ten is the opaque atob form
		packed = antiadblock.VendorScript(vendor, "", "notice", rng, antiadblock.GenOptions{PackProbability: 1})
	}
	return plain, packed
}

// TestClassifyBatchMatchesSingle: each slot of a batch that mixes scripts
// that parse with ones that do not holds what /v1/classify answers for that
// script alone — its result fields, or its bad_script message as the slot's
// error.
func TestClassifyBatchMatchesSingle(t *testing.T) {
	s := newTestServer(t, Config{})
	plain, packed := classifyAllocScripts(t)
	scripts := []string{testAntiScript, "function (", testBenignScript, plain, "var = ;", packed}
	body, _ := json.Marshal(classifyBatchRequest{Scripts: scripts})
	rec := do(t, s, "POST", "/v1/classify/batch", string(body))
	var batch classifyBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || rec.Code != 200 || len(batch.Results) != len(scripts) {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.Bytes())
	}
	bad := 0
	for i, src := range scripts {
		rec := do(t, s, "POST", "/v1/classify", src)
		var want ClassifyResult
		if rec.Code == 200 {
			var single classifyResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil {
				t.Fatal(err)
			}
			want = single.ClassifyResult
		} else {
			var envelope errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || rec.Code != 422 || envelope.Error.Code != "bad_script" {
				t.Fatalf("script %d alone: %d %s", i, rec.Code, rec.Body.Bytes())
			}
			want = ClassifyResult{Error: envelope.Error.Message}
			bad++
		}
		if batch.Results[i] != want {
			t.Errorf("slot %d = %+v, alone %+v", i, batch.Results[i], want)
		}
	}
	if bad != 2 {
		t.Errorf("%d of the scripts do not parse, want 2", bad)
	}
}

// TestClassifyAllocBudget is the allocation gate of the classification
// path, so that a regression fails `go test ./...` and not only the
// benchmark's process.allocs_per_req and process.bytes_per_req: one fully
// served /v1/classify — body read, lex, parse, unpack, projection onto the
// vocabulary, score, JSON encode — within a quarter of what pooled tokens,
// one slab of lists per element type and the reply codec brought it to
// (70 and 75 allocations, 11 632 and 14 800 bytes; the commit before them:
// 118 and 118, 33 290 and 34 690). What is left is a chunk per eight nodes
// of a type, the other nodes, the list slabs and the script's string.
func TestClassifyAllocBudget(t *testing.T) {
	if raceSrvEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	s := newTestServer(t, Config{Workers: 4, Queue: 64, QueueTimeout: time.Second})
	plain, packed := classifyAllocScripts(t)
	for _, tc := range []struct {
		name          string
		script        string
		allocs, bytes float64 // 1.25 × measured
	}{
		{"BlockAdBlock template", plain, 88, 14540},
		{"eval-packed", packed, 94, 18500},
	} {
		h, w, req, rb := allocRig(s, "/v1/classify", tc.script)
		serve := func() {
			rb.Reset(tc.script)
			w.status = 0
			h.ServeHTTP(w, req)
		}
		allocs := testing.AllocsPerRun(100, serve)
		if w.status != 200 {
			t.Fatalf("%s: status = %d", tc.name, w.status)
		}
		bytes := bytesPerRun(100, serve)
		if allocs > tc.allocs || bytes > tc.bytes {
			t.Errorf("%s (%d bytes): /v1/classify allocates %.0f times and %.0f bytes a request, budget is %.0f and %.0f",
				tc.name, len(tc.script), allocs, bytes, tc.allocs, tc.bytes)
		}
		t.Logf("%s (%d bytes): %.0f allocs/op, %.0f B/op", tc.name, len(tc.script), allocs, bytes)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap f allocates per
// call, averaged over runs calls after a warm-up one, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestClassifyRefusesDeepNesting posts /v1/classify's whole default body
// limit of each nesting shape. Before the parser bounded its depth, the
// first of these ended the process: a goroutine stack past its 1 GB limit
// is a fatal error, not a panic the recovery middleware could turn into a
// 500. Now each is a script that does not parse — 422 bad_script, promptly
// — and the server goes on serving.
func TestClassifyRefusesDeepNesting(t *testing.T) {
	if testing.Short() {
		t.Skip("lexes twelve one-megabyte bodies; skipped in -short")
	}
	s := newTestServer(t, Config{})
	limit := maxBody
	for _, unit := range []string{"(", "[", "{", "a+", "a.", "f(", "a=", "a?a:", "!", "new ", "if(a)", "a:"} {
		body := strings.Repeat(unit, limit/len(unit))
		start := time.Now()
		rec := do(t, s, "POST", "/v1/classify", body)
		took := time.Since(start)
		var envelope errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
			t.Fatalf("%d bytes of %q: reply is not an error envelope: %v", len(body), unit, err)
		}
		if rec.Code != 422 || envelope.Error.Code != "bad_script" || !strings.Contains(envelope.Error.Message, "nested deeper") {
			t.Errorf("%d bytes of %q: %d %+v, want 422 bad_script from the depth bound", len(body), unit, rec.Code, envelope.Error)
		}
		if took > 5*time.Second {
			t.Errorf("%d bytes of %q took %v to refuse", len(body), unit, took)
		}
	}
	// The batch endpoint parses the same way, one slot per script.
	batch, _ := json.Marshal(classifyBatchRequest{Scripts: []string{strings.Repeat("[", limit/4), testAntiScript}})
	rec := do(t, s, "POST", "/v1/classify/batch", string(batch))
	var out classifyBatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != 200 || len(out.Results) != 2 {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.Bytes())
	}
	if !strings.Contains(out.Results[0].Error, "nested deeper") || !out.Results[1].AntiAdblock {
		t.Errorf("batch results %+v, want the first slot refused and the second classified", out.Results)
	}
	if rec := do(t, s, "POST", "/v1/classify", testAntiScript); rec.Code != 200 {
		t.Errorf("after the refusals: %d %s", rec.Code, rec.Body.Bytes())
	}
	if got := s.met.PanicsRecovered.Load(); got != 0 {
		t.Errorf("panics_recovered = %d; the bound is an error, not a recovered panic", got)
	}
}

// TestClassifyBoundsPackerOutput posts /v1/classify's whole default body
// limit as one p.a.c.k.e.r bootstrap: half of it a payload of `0 0 0 …`,
// the other half the one dictionary word every 0 stands for — 128 GB
// decoded. Before the unpacker took a budget the server died allocating
// it; now the payload is left packed, the script is classified on what it
// says outside it, and the request allocates no more than a body of plain
// script may (a token is 48 bytes, so one-byte tokens cost 48 times their
// size before the parser sees them; this body measures 22).
func TestClassifyBoundsPackerOutput(t *testing.T) {
	s := newTestServer(t, Config{})
	limit := maxBody
	head, mid, tail := `eval(function(p,a,c,k,e,d){}('`, `',10,1,'`, `'.split('|'),0,{}));`
	half := (limit - len(head) - len(mid) - len(tail)) / 2
	body := head + strings.Repeat("0 ", half/2) + mid + strings.Repeat("w", half) + tail

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rec := do(t, s, "POST", "/v1/classify", body)
	took := time.Since(start)
	runtime.ReadMemStats(&after)

	if rec.Code != 200 && rec.Code != 422 {
		t.Fatalf("%d bytes of packer: %d %s", len(body), rec.Code, rec.Body.Bytes())
	}
	// Allocation accounting is unreliable under -race; the time bound holds.
	if grew := after.TotalAlloc - before.TotalAlloc; !raceSrvEnabled && grew > 64*uint64(len(body)) {
		t.Errorf("%d bytes of packer made the server allocate %d bytes, more than 64 times the body", len(body), grew)
	}
	if took > 5*time.Second {
		t.Errorf("%d bytes of packer took %v to answer", len(body), took)
	}
	if rec := do(t, s, "POST", "/v1/classify", testAntiScript); rec.Code != 200 {
		t.Errorf("after the packer: %d %s", rec.Code, rec.Body.Bytes())
	}
	if got := s.met.PanicsRecovered.Load(); got != 0 {
		t.Errorf("panics_recovered = %d; the budget leaves a payload packed, it does not panic", got)
	}
}
