package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRecoveryConvertsPanicToStructured500: a panic inside request
// handling becomes a typed 500 envelope plus a panics_recovered tick; the
// server keeps answering afterwards.
func TestRecoveryConvertsPanicToStructured500(t *testing.T) {
	checkGoroutineLeaks(t)
	s := newTestServer(t, Config{})
	boom := s.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler exploded")
	}))

	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/match", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var envelope errorResponse
	if err := json.NewDecoder(rec.Body).Decode(&envelope); err != nil {
		t.Fatalf("500 body not a structured envelope: %v", err)
	}
	if envelope.Error.Code != "internal_panic" {
		t.Errorf("code = %q, want internal_panic", envelope.Error.Code)
	}
	if !strings.Contains(envelope.Error.Message, "handler exploded") {
		t.Errorf("message %q lost the panic value", envelope.Error.Message)
	}
	if got := s.met.PanicsRecovered.Load(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}

	// The real handler tree still works after a recovered panic.
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, "/v1/match",
		strings.NewReader(`{"url":"http://ads.example.com/banner.js"}`)))
	if rec2.Code != http.StatusOK {
		t.Fatalf("post-panic request status = %d, want 200", rec2.Code)
	}
}

// TestRecoveryAfterPartialWrite: a panic after response bytes went out
// cannot grow a second status line; the recovery boundary must swallow it
// without re-writing headers (and still count it).
func TestRecoveryAfterPartialWrite(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"partial":`))
		panic("mid-body panic")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/match", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status rewritten to %d after partial write", rec.Code)
	}
	if body := rec.Body.String(); strings.Contains(body, "internal_panic") {
		t.Errorf("error envelope appended to a started response: %q", body)
	}
	if got := s.met.PanicsRecovered.Load(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
}

// TestRecoveryRepanicsAbortHandler: http.ErrAbortHandler is the sanctioned
// silent-abort signal and must pass through uncounted for net/http to
// suppress.
func TestRecoveryRepanicsAbortHandler(t *testing.T) {
	checkGoroutineLeaks(t)
	s := newTestServer(t, Config{})
	h := s.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if v := recover(); v == nil {
			t.Fatal("ErrAbortHandler swallowed instead of re-panicked")
		}
		if got := s.met.PanicsRecovered.Load(); got != 0 {
			t.Errorf("panics_recovered = %d for ErrAbortHandler, want 0", got)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/match", nil))
}

// TestPanicIsolationOverRealConnections: panics triggered over real HTTP
// connections (by a request body whose read panics) are isolated
// per-request — every client gets a structured 500, the process survives,
// and the count matches.
func TestPanicIsolationOverRealConnections(t *testing.T) {
	checkGoroutineLeaks(t)
	s, ts := faultServer(t, panicking("injected panic"))

	const n = 8
	for i := 0; i < n; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/match", "application/json",
			strings.NewReader(`{"url":"http://ads.example.com/a.js"}`))
		if err != nil {
			t.Fatalf("request %d: transport error %v (process died?)", i, err)
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, resp.StatusCode)
		}
		var envelope errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error.Code != "internal_panic" {
			t.Fatalf("request %d: body not a panic envelope: %v %+v", i, err, envelope)
		}
		resp.Body.Close()
	}
	if got := s.met.PanicsRecovered.Load(); got != n {
		t.Errorf("panics_recovered = %d, want %d", got, n)
	}
	// The control plane reads no body: health stays green.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the panics: %v %v", err, resp)
	}
	resp.Body.Close()
}
