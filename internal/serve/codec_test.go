package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// jsonEncoded is the oracle for appendMatchResponse: the bytes the handler
// wrote before it had an encoder of its own.
func jsonEncoded(t testing.TB, r *matchResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertEncodesAsJSON(t testing.TB, r *matchResponse) {
	t.Helper()
	if got, want := appendMatchResponse(nil, r), jsonEncoded(t, r); !bytes.Equal(got, want) {
		t.Fatalf("appendMatchResponse:\n got %q\nwant %q", got, want)
	}
}

// nastyStrings is text a rule, a list name or a label could hold that the
// encoder must escape exactly as encoding/json does.
var nastyStrings = []string{
	"", "plain", `||ads.example.com^$script,domain=a.com|b.com`,
	`/banner.js?a=1&b=2`, `<script>alert("x")</script>`, `back\slash`, `"quoted"`,
	"ctl\x00\x01\x07\b\f\n\r\t\x1b\x1f\x7f", "line\u2028sep\u2029para", "caf\u00e9 \u4e16\u754c \U0001F600",
	"bad\xffutf8\xc3", "\xed\xa0\x80surrogate", "\xef\xbf\xbdreplacement", "tail\xe2\x80",
}

func TestAppendMatchResponseEqualsJSONEncoder(t *testing.T) {
	// Every /v1/match golden, decoded and encoded again, is the golden.
	goldens, err := filepath.Glob(filepath.Join("testdata", "match_*.golden.json"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no match goldens: %v", err)
	}
	for _, path := range goldens {
		if filepath.Base(path) == "match_batch.golden.json" {
			continue // a matchBatchResponse: encoding/json still writes it
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var r matchResponse
		if err := json.Unmarshal(want, &r); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got := appendMatchResponse(nil, &r); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", path, got, want)
		}
	}

	// Every optional field present and absent.
	model := &ModelInfo{FeatureSet: "keyword", Vocab: 2, Rounds: 1}
	lists := &ListsInfo{Lists: 2, Rules: -5}
	for _, r := range []matchResponse{
		{},
		{MatchResult: MatchResult{Lists: []ListMatch{}}},
		{MatchResult: MatchResult{Blocked: true, Decision: "blocked", Degraded: "hot-only",
			Lists: []ListMatch{{List: "a", Decision: "blocked", Rule: "||x^", MatchedRules: []string{"||x^", "/y/"}}, {List: "b", Decision: "no-match", MatchedRules: []string{}}}}},
		{Snapshot: SnapshotInfo{Model: model}},
		{Snapshot: SnapshotInfo{Lists: lists}},
		{Snapshot: SnapshotInfo{Model: &ModelInfo{Version: "v1"}, Lists: &ListsInfo{Label: "l", Version: "v2"}}},
	} {
		assertEncodesAsJSON(t, &r)
	}
	for _, s := range nastyStrings {
		assertEncodesAsJSON(t, nastyResponse(s))
	}
}

// nastyResponse puts s everywhere a string goes.
func nastyResponse(s string) *matchResponse {
	return &matchResponse{
		MatchResult: MatchResult{Decision: s, Degraded: s,
			Lists: []ListMatch{{List: s, Decision: s, Rule: s, MatchedRules: []string{s, s}}}},
		Snapshot: SnapshotInfo{Model: &ModelInfo{FeatureSet: s, Version: s}, Lists: &ListsInfo{Label: s, Version: s}},
	}
}

// TestDecodeQueryTakesThePlainShape pins which inputs the hand-written
// decoder answers itself. What it declines is still decoded — by
// encoding/json — so a false "declined" here costs speed, not correctness;
// a wrong "taken" is what FuzzMatchQueryDecode would catch.
func TestDecodeQueryTakesThePlainShape(t *testing.T) {
	for _, tc := range []struct {
		body  string
		taken bool
	}{
		{`{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`, true},
		{`{"page_domain":"a","url":"b"}`, true},
		{` { "url" : "x" , "type" : "" } ` + "\r\n\t", true},
		{`{}`, true},
		{`{"url":"https://cdn.x/app.js?v=1\u0026cb=2"}`, true}, // how json.Marshal writes an &
		{`{"url":"a\/b\\c\"d\b\f\n\r\t\u00e9\u0000"}`, true},
		{`{"url":"café 世界"}`, true},
		{`{"url":"\ud83d\ude00"}`, false}, // a surrogate pair
		{`{"url":"\ud800"}`, false},
		{`{"URL":"x"}`, false},
		{`{"url":"x","extra":1}`, false},
		{`{"url":"x","url":"y"}`, false},
		{`{"url":null}`, false},
		{`{"url":1}`, false},
		{`{"url":"x",}`, false},
		{`{"url":"x"}{}`, false},
		{`{"url":"x"`, false},
		{`{"url":"tab	inside"}`, false},
		{"{\"url\":\"bad\xffutf8\"}", false},
		{`{"url":"\x41"}`, false},
		{`{"url":"\u00zz"}`, false},
		{`[]`, false},
		{``, false},
		{`null`, false},
	} {
		sc := getMatchScratch()
		if got := sc.decodeQuery([]byte(tc.body)); got != tc.taken {
			t.Errorf("decodeQuery(%q) = %v, want %v", tc.body, got, tc.taken)
		}
		matchScratchPool.Put(sc)
	}
}

// FuzzMatchQueryDecode: whatever the bytes, the /v1/match decoder — the
// hand-written one where it takes the input, encoding/json where it does
// not — gives the value and the error json.Unmarshal gives; and the same
// bytes as rule text, list name and label leave the encoder as they leave
// json.Encoder.
func FuzzMatchQueryDecode(f *testing.F) {
	for _, s := range []string{
		`{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`,
		`{"url":"http://CDN.example/AdFrame/café.html","type":"subdocument","page_domain":"news.example"}`,
		`{"url":"https://cdn.x/app.js?v=1\u0026cb=2","type":"script","page_domain":"x"}`,
		`{"url": unquoted}`, `{"type":"script"}`, `{"url":"http://x.example/","type":"teapot"}`,
		`{"url":"a","url":"b"}`, `{"URL":"a","Page_Domain":"b"}`, `{"url":null,"type":"x"}`,
		`{"url":"\ud83d\ude00 \ud800 \udc00\ud800"}`, `{"url":"\u0000\u001f\u2028"}`,
		`{"url":"x"} trailing`, `{"url":"x",}`, `{,}`, `{"url"}`, `{"url":}`, `{"url":"x"`, `{"url":"\`,
		`{"url":"\u12"}`, "{\"url\":\"\xff\xc3\"}", "{\"url\":\"a\tb\"}", `{"url":{"a":[1,2]}}`,
		` {} `, `[]`, `null`, `"url"`, `0`, ``,
	} {
		f.Add([]byte(s))
	}
	for _, s := range nastyStrings {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want MatchQuery
		wantErr := json.Unmarshal(data, &want)
		sc := getMatchScratch()
		defer matchScratchPool.Put(sc)
		sc.q = MatchQuery{URL: "left over", Type: "from the", PageDomain: "last request"}
		err := sc.decode(data)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("decode(%q): error %v, json.Unmarshal: %v", data, err, wantErr)
		case err != nil && err.Error() != wantErr.Error():
			t.Fatalf("decode(%q): error %q, json.Unmarshal: %q", data, err, wantErr)
		case err == nil && sc.q != want:
			t.Fatalf("decode(%q) = %+v, json.Unmarshal: %+v", data, sc.q, want)
		}
		assertEncodesAsJSON(t, nastyResponse(string(data)))
	})
}

// TestClassifyReplyMatchesEncoder holds appendClassifyResponse to
// json.Encoder over random results: scores and decisions at the edges of
// the encoder's number formats (zero, negative zero, subnormal, just under
// 1e-6, 1e21 and past it, random bits), with and without an error text,
// and with model and lists info present or absent. A NaN or infinite
// number has no JSON form: the encoder refuses the reply, and so does
// appendClassifyResponse, which the handler answers with its status and no
// body, as WriteJSON did.
func TestClassifyReplyMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, -1e-7,
		1e-6, 9.999999999999999e-7, 0.5, 1, -3.25, 1e20, 1e21, -1e21, 1.7976931348623157e308,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	number := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
		}
	}
	refused := 0
	for i := 0; i < 20000; i++ {
		r := classifyResponse{ClassifyResult: ClassifyResult{
			AntiAdblock: rng.Intn(2) == 0, Score: number(), Decision: number(),
			Features: rng.Intn(200) - 10,
		}}
		if rng.Intn(3) == 0 {
			r.Error = nastyStrings[rng.Intn(len(nastyStrings))]
		}
		if rng.Intn(2) == 0 {
			r.Snapshot.Model = &ModelInfo{FeatureSet: "keyword", Vocab: rng.Intn(100), Rounds: rng.Intn(5)}
			if rng.Intn(2) == 0 {
				r.Snapshot.Model.Version = "1108c7926a237ccb"
			}
		}
		if rng.Intn(2) == 0 {
			r.Snapshot.Lists = &ListsInfo{Label: nastyStrings[rng.Intn(len(nastyStrings))], Lists: 2, Rules: rng.Intn(1000)}
		}
		var want bytes.Buffer
		err := json.NewEncoder(&want).Encode(&r)
		got, ok := appendClassifyResponse([]byte("stale"), &r)
		switch {
		case ok != (err == nil):
			t.Fatalf("%+v: appendClassifyResponse ok = %v, json.Encoder error %v", r, ok, err)
		case !ok:
			refused++
		case !bytes.Equal(got[len("stale"):], want.Bytes()):
			t.Fatalf("%+v:\n got %q\nwant %q", r, got[len("stale"):], want.Bytes())
		}
	}
	if refused == 0 {
		t.Fatal("no non-finite result was tried")
	}
}
