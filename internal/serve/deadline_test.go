package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adwars/internal/chassis"
)

// doWithDeadline is do with an X-Adwars-Deadline header attached.
func doWithDeadline(t *testing.T, s *Server, path, body, deadline string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	if deadline != "" {
		req.Header.Set(chassis.DeadlineHeader, deadline)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestDeadlineRefusedImmediately: a request whose propagated deadline
// cannot cover even the queue wait is refused with 429 on the spot —
// it never takes a worker slot and never occupies the queue, so it
// cannot displace work that still has time to finish.
func TestDeadlineRefusedImmediately(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, Queue: 8, QueueTimeout: 100 * time.Millisecond})

	rec := doWithDeadline(t, s, "/v1/match", matchBlockedBody, "50")
	if rec.Code != 429 {
		t.Fatalf("status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Error.Code != "deadline" {
		t.Fatalf("error code = %q, want deadline", er.Error.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("deadline refusal carries no Retry-After")
	}
	if got := s.met.DeadlineRefused.Load(); got != 1 {
		t.Fatalf("deadline_refused = %d, want 1", got)
	}
	// The refusal left admission untouched: no slot held, nothing queued.
	if q := s.adm.queued.Load(); q != 0 {
		t.Fatalf("queue depth = %d after refusal, want 0", q)
	}
	if n := len(s.adm.slots); n != 0 {
		t.Fatalf("%d worker slots held after refusal, want 0", n)
	}
	// The refusal is booked as a shed so ledgers stay sent == 2xx + 429.
	if shed := s.met.endpoints[epMatch].Shed.Load(); shed != 1 {
		t.Fatalf("match shed = %d, want 1", shed)
	}
}

// TestDeadlineBoundaryAdmits: a deadline exactly equal to QueueTimeout
// is admitted — the gate is strictly-less, so the boundary request may
// still race a freeing slot and win.
func TestDeadlineBoundaryAdmits(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, Queue: 8, QueueTimeout: 100 * time.Millisecond})
	for deadline, want := range map[string]int{
		"100":  200, // exact boundary: admitted
		"99":   429, // one ms short: refused
		"101":  200,
		"5000": 200,
	} {
		rec := doWithDeadline(t, s, "/v1/match", matchBlockedBody, deadline)
		if rec.Code != want {
			t.Fatalf("deadline %sms: status %d, want %d: %s",
				deadline, rec.Code, want, rec.Body.String())
		}
	}
}

// TestDeadlineMalformedIgnored: the header is advisory; garbage reads
// as "no deadline" and the request is served normally.
func TestDeadlineMalformedIgnored(t *testing.T) {
	s := newTestServer(t, Config{QueueTimeout: 100 * time.Millisecond})
	for _, bad := range []string{"abc", "-5", "1.5", "", "10ms"} {
		rec := doWithDeadline(t, s, "/v1/match", matchBlockedBody, bad)
		if rec.Code != 200 {
			t.Fatalf("deadline %q: status %d, want 200 (advisory header)", bad, rec.Code)
		}
	}
	if got := s.met.DeadlineRefused.Load(); got != 0 {
		t.Fatalf("deadline_refused = %d, want 0", got)
	}
}

// TestDeadlineRefusalOnBatchAndClassify: the gate guards every admitted
// endpoint, not just single matches.
func TestDeadlineRefusalOnBatchAndClassify(t *testing.T) {
	s := newTestServer(t, Config{QueueTimeout: 100 * time.Millisecond})
	probes := map[string]string{
		"/v1/match/batch":    `{"requests":[` + matchBlockedBody + `]}`,
		"/v1/classify":       testAntiScript,
		"/v1/classify/batch": `{"scripts":[` + jsonQuote(testAntiScript) + `]}`,
	}
	for path, body := range probes {
		rec := doWithDeadline(t, s, path, body, "10")
		if rec.Code != 429 {
			t.Fatalf("%s with 10ms deadline: status %d, want 429", path, rec.Code)
		}
	}
	if got := s.met.DeadlineRefused.Load(); got != uint64(len(probes)) {
		t.Fatalf("deadline_refused = %d, want %d", got, len(probes))
	}
}

func TestDeadlineMsParse(t *testing.T) {
	cases := []struct {
		in   string
		ms   int64
		have bool
	}{
		{"0", 0, true},
		{"25", 25, true},
		{"1000", 1000, true},
		{"", 0, false},
		{"x", 0, false},
		{"-1", 0, false},
		{"+5", 0, false},
		{"12a", 0, false},
		{" 12", 0, false},
		// Past the cap the value saturates, and the rest of it is still read.
		{"1099511627777", 1 << 40, true},
		{"99999999999999999999999999", 1 << 40, true},
		{"1099511627777x", 0, false},
	}
	for _, c := range cases {
		req := httptest.NewRequest("POST", "/v1/match", nil)
		if c.in != "" {
			req.Header.Set(chassis.DeadlineHeader, c.in)
		}
		ms, have := chassis.DeadlineMs(req.Header)
		if have != c.have || (have && ms != c.ms) {
			t.Fatalf("DeadlineMs(%q) = %d,%v want %d,%v", c.in, ms, have, c.ms, c.have)
		}
	}
}
