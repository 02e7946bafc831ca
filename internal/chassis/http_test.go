package chassis

import (
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// TestCounterTree: a struct of tagged Counters is its own JSON, through a
// pointer, with nothing else declared.
func TestCounterTree(t *testing.T) {
	var tree struct {
		Hits   Counter `json:"hits"`
		Misses Counter `json:"misses"`
		Inner  *struct {
			Deep Counter `json:"deep"`
		} `json:"inner,omitempty"`
	}
	tree.Hits.Add(3)
	if got, want := JSON(&tree), `{"hits":3,"misses":0}`; got != want {
		t.Errorf("JSON = %s, want %s", got, want)
	}
	var b strings.Builder
	Flush(&b, &tree)
	if want := "{\n  \"hits\": 3,\n  \"misses\": 0\n}\n"; b.String() != want {
		t.Errorf("Flush wrote %q, want %q", b.String(), want)
	}
	Flush(nil, &tree) // a nil writer discards
}

func TestReadBody(t *testing.T) {
	buf := make([]byte, 0, 64)
	read := func(body io.Reader, max int64) (string, bool, *httptest.ResponseRecorder) {
		rec := httptest.NewRecorder()
		got, ok := ReadBody(rec, httptest.NewRequest("POST", "/v1/x", body), buf, max)
		return string(got), ok, rec
	}
	if got, ok, _ := read(strings.NewReader("hello"), 5); !ok || got != "hello" {
		t.Errorf("a body at the cap: %q, %v", got, ok)
	}
	// One byte at a time, length unknown: the loop grows as it goes.
	long := strings.Repeat("x", 3000)
	if got, ok, _ := read(iotest.OneByteReader(struct{ io.Reader }{strings.NewReader(long)}), 4096); !ok || got != long {
		t.Errorf("a trickled body: %d bytes, %v", len(got), ok)
	}
	_, ok, rec := read(strings.NewReader("hello!"), 5)
	if want := `{"error":{"code":"body_too_large","message":"request body exceeds 5 bytes"}}` + "\n"; ok || rec.Code != 413 || rec.Body.String() != want {
		t.Errorf("a body past the cap: ok=%v, %d %s", ok, rec.Code, rec.Body)
	}
	_, ok, rec = read(io.MultiReader(strings.NewReader("he"), iotest.ErrReader(errors.New("peer gone"))), 5)
	if want := `{"error":{"code":"bad_request","message":"reading body: peer gone"}}` + "\n"; ok || rec.Code != 400 || rec.Body.String() != want {
		t.Errorf("a body that fails mid-read: ok=%v, %d %s", ok, rec.Code, rec.Body)
	}
	// The caller's buffer is what holds the body: no allocation once warm.
	body := strings.NewReader("")
	req := httptest.NewRequest("POST", "/v1/x", body)
	rec = httptest.NewRecorder()
	if n := testing.AllocsPerRun(100, func() {
		body.Reset("a body that fits the buffer")
		req.ContentLength = 27
		if _, ok := ReadBody(rec, req, buf, 64); !ok {
			t.Fatal("refused")
		}
	}); n != 0 {
		t.Errorf("ReadBody into a warm buffer allocates %v times", n)
	}
}

func TestWriteVars(t *testing.T) {
	var tree struct {
		Hits Counter `json:"hits"`
	}
	rec := httptest.NewRecorder()
	WriteVars(rec, httptest.NewRequest("GET", "/debug/vars", nil),
		Var{Key: "adwars_one", Tree: &tree}, Var{Key: "adwars_two", Tree: map[string]bool{"enabled": false}})
	body := rec.Body.String()
	// The registry first (cmdline, memstats), ours after, in the order given.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	if doc["memstats"] == nil || string(doc["adwars_one"]) != `{"hits":0}` {
		t.Errorf("body = %s", body)
	}
	if tail := ",\n\"adwars_one\": {\"hits\":0},\n\"adwars_two\": {\"enabled\":false}\n}\n"; !strings.HasSuffix(body, tail) || !strings.HasPrefix(body, "{\n\"cmdline\": ") {
		t.Errorf("body is not laid out as expvar lays it out: %s", body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
}
