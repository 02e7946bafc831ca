package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
)

// truncated yields the first three bytes of the real body and then fails
// the read mid-stream, exactly like a peer that vanished while sending.
func truncated(body io.ReadCloser) io.ReadCloser {
	return io.NopCloser(io.MultiReader(io.LimitReader(body, 3), iotest.ErrReader(io.ErrUnexpectedEOF)))
}

// panicking returns a body whose first read panics with v, inside the
// handler and so inside the recovery boundary.
func panicking(v any) func(io.ReadCloser) io.ReadCloser {
	return func(body io.ReadCloser) io.ReadCloser { return panicBody{body, v} }
}

type panicBody struct {
	io.ReadCloser
	v any
}

func (p panicBody) Read([]byte) (int, error) { panic(p.v) }

// faultServer serves a test server's Handler() with each request's body
// put behind wrap: the faults a hostile network delivers, injected from
// outside the server.
func faultServer(t *testing.T, wrap func(io.ReadCloser) io.ReadCloser) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = wrap(r.Body)
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return s, ts
}

const chaosMatchBody = `{"url":"http://ads.example.com/banner.js","type":"script"}`

// TestChaosTruncatedReadBecomes400: a mid-body read failure must surface
// as a structured 400 — the same degradation a real half-dead client
// produces — never a 5xx or a hang.
func TestChaosTruncatedReadBecomes400(t *testing.T) {
	checkGoroutineLeaks(t)
	_, ts := faultServer(t, truncated)
	resp, err := ts.Client().Post(ts.URL+"/v1/match", "application/json",
		strings.NewReader(chaosMatchBody))
	if err != nil {
		t.Fatalf("transport error: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var envelope errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error.Code != "bad_request" {
		t.Fatalf("truncated read not a structured 400: %v %+v", err, envelope)
	}
}

// TestChaosConnectionCloseIsClientVisible: a request whose handling
// panics http.ErrAbortHandler passes the recovery boundary uncounted and
// reaches the client as a transport error, and the server survives to
// answer the next request.
func TestChaosConnectionCloseIsClientVisible(t *testing.T) {
	checkGoroutineLeaks(t)
	s, ts := faultServer(t, panicking(http.ErrAbortHandler))
	if _, err := ts.Client().Post(ts.URL+"/v1/match", "application/json",
		strings.NewReader(chaosMatchBody)); err == nil {
		t.Fatal("an aborted request produced a clean response")
	}
	if got := s.met.PanicsRecovered.Load(); got != 0 {
		t.Errorf("panics_recovered = %d for an abort, want 0", got)
	}
	// Control plane unaffected.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after an aborted request: %v %v", err, resp)
	}
	resp.Body.Close()
}
