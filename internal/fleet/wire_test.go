package fleet

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adwars/internal/chassis"
)

// ---- stubs ----

// rawStub is a replica reduced to a TCP listener: serve gets every accepted
// connection and decides, byte by byte, what the gateway reads back.
type rawStub struct {
	URL    string
	served sync.WaitGroup
}

func newRawStub(t testing.TB, serve func(c net.Conn)) *rawStub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &rawStub{URL: "http://" + ln.Addr().String()}
	var mu sync.Mutex
	conns := map[net.Conn]bool{}
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns[c] = true
			mu.Unlock()
			s.served.Add(1)
			go func() {
				defer s.served.Done()
				serve(c)
				c.Close()
				mu.Lock()
				delete(conns, c)
				mu.Unlock()
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		s.served.Wait()
	})
	return s
}

// readRawRequest reads one request off br and returns its exact bytes, head
// and body; ok is false once the peer has closed or sent garbage.
func readRawRequest(br *bufio.Reader) (raw []byte, ok bool) {
	var rec bytes.Buffer
	req, err := http.ReadRequest(bufio.NewReader(io.TeeReader(oneByteReader{br}, &rec)))
	if err != nil {
		return nil, false
	}
	if _, err := io.Copy(io.Discard, req.Body); err != nil {
		return nil, false
	}
	return rec.Bytes(), true
}

// oneByteReader hands out one byte a call, so a parser reading through it
// consumes exactly the message and nothing of the next.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.r.Read(p[:1])
}

const cannedOK = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Adwars-Replica: stub\r\nContent-Length: 2\r\n\r\n{}"

// recordingStub answers every request with cannedOK and keeps the exact
// bytes of each request it received.
type recordingStub struct {
	*rawStub
	mu   sync.Mutex
	reqs [][]byte
}

func newRecordingStub(t testing.TB, reply string) *recordingStub {
	s := &recordingStub{}
	s.rawStub = newRawStub(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		for {
			raw, ok := readRawRequest(br)
			if !ok {
				return
			}
			s.mu.Lock()
			s.reqs = append(s.reqs, raw)
			s.mu.Unlock()
			if _, err := io.WriteString(c, reply); err != nil {
				return
			}
		}
	})
	return s
}

func (s *recordingStub) requests() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.reqs...)
}

func mustGateway(t testing.TB, cfg GatewayConfig) *Gateway {
	t.Helper()
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.pool.closeIdle)
	return g
}

// through sends r into the gateway's handler without a client socket.
func through(g *Gateway, r *http.Request) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	g.Handler().ServeHTTP(w, r)
	return w
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// ---- what goes out on a backend connection ----

// TestWireForwardsOnlyEndToEndHeaders: the gateway frames the backend
// request itself, so nothing a client sends may reframe it. Hop-by-hop
// headers are dropped in any spelling, exactly one Content-Length goes out
// and it is the gateway's, and a request that cannot be written safely is a
// 400 that never puts a byte on a backend connection.
func TestWireForwardsOnlyEndToEndHeaders(t *testing.T) {
	checkGoroutineLeaks(t)
	const body = `{"url":"http://x/a"}`
	cases := []struct {
		name   string
		mutate func(r *http.Request)
		status int
		// absent must not appear anywhere in what the replica received.
		absent []string
	}{
		{"plain", func(r *http.Request) {}, 200, nil},
		{"hop-by-hop dropped", func(r *http.Request) {
			r.Header.Set("Connection", "close, X-Foo")
			r.Header.Set("Keep-Alive", "timeout=5")
			r.Header.Set("Proxy-Connection", "keep-alive")
			r.Header.Set("Te", "trailers")
			r.Header.Set("Trailer", "X-Sum")
			r.Header.Set("Upgrade", "websocket")
			r.Header.Set("Expect", "100-continue")
			r.Header.Set("Host", "evil.example")
		}, 200, []string{"Connection:", "Keep-Alive", "Proxy-Connection", "Te:", "Trailer", "Upgrade", "Expect", "evil.example"}},
		{"transfer-encoding dropped", func(r *http.Request) {
			r.Header.Set("Transfer-Encoding", "chunked")
		}, 200, []string{"Transfer-Encoding", "chunked"}},
		{"lower-case transfer-encoding dropped", func(r *http.Request) {
			r.Header["transfer-encoding"] = []string{"chunked"}
		}, 200, []string{"ransfer-", "chunked"}},
		{"client content-length replaced", func(r *http.Request) {
			r.Header["Content-Length"] = []string{"5", "77777"}
		}, 200, []string{"Content-Length: 5", "77777"}},
		{"CRLF in header value", func(r *http.Request) {
			r.Header["X-Trace"] = []string{"a\r\nX-Injected: 1"}
		}, 400, nil},
		{"bare LF in header value", func(r *http.Request) {
			r.Header["X-Trace"] = []string{"a\nTransfer-Encoding: chunked"}
		}, 400, nil},
		{"NUL in header value", func(r *http.Request) {
			r.Header["X-Trace"] = []string{"a\x00b"}
		}, 400, nil},
		{"space in header name", func(r *http.Request) {
			r.Header["X Trace"] = []string{"1"}
		}, 400, nil},
		{"colon in header name", func(r *http.Request) {
			r.Header["X-A: b\r\nX-C"] = []string{"1"}
		}, 400, nil},
		{"CRLF in query", func(r *http.Request) {
			r.URL.RawQuery = "a=1 HTTP/1.1\r\nX-Injected: 1\r\n\r\nGET /admin"
		}, 400, nil},
		{"space in method", func(r *http.Request) {
			r.Method = "POST /admin HTTP/1.1\r\nX:"
		}, 400, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stub := newRecordingStub(t, cannedOK)
			g := mustGateway(t, GatewayConfig{Backends: []string{stub.URL}})
			r := httptest.NewRequest(http.MethodPost, "/v1/match?q=1", strings.NewReader(body))
			r.Header.Set("Content-Type", "application/json")
			r.Header.Add("X-Multi", "one")
			r.Header.Add("X-Multi", "two")
			c.mutate(r)
			w := through(g, r)
			if w.Code != c.status {
				t.Fatalf("status %d, want %d: %s", w.Code, c.status, w.Body)
			}
			b := g.pool.Backends()[0]
			reqs := stub.requests()
			if c.status == 400 {
				if len(reqs) != 0 || b.dials.Load() != 0 {
					t.Fatalf("refused request reached the backend: %d dials, %q", b.dials.Load(), reqs)
				}
				if !strings.Contains(w.Body.String(), "bad_request") {
					t.Errorf("400 body = %s, want the bad_request envelope", w.Body)
				}
				return
			}
			if len(reqs) != 1 {
				t.Fatalf("replica received %d requests, want 1", len(reqs))
			}
			got := string(reqs[0])
			head, gotBody, _ := strings.Cut(got, "\r\n\r\n")
			if gotBody != body {
				t.Errorf("replica read body %q, want %q", gotBody, body)
			}
			if !strings.HasPrefix(head, "POST /v1/match?q=1 HTTP/1.1\r\nHost: "+b.host+"\r\n") {
				t.Errorf("request line and Host wrong:\n%s", head)
			}
			if n := strings.Count(head, "Content-Length:"); n != 1 || !strings.HasSuffix(head, "\r\nContent-Length: "+strconv.Itoa(len(body))) {
				t.Errorf("want exactly one Content-Length of %d, last:\n%s", len(body), head)
			}
			for _, want := range []string{"\r\nContent-Type: application/json", "\r\nX-Multi: one\r\n", "\r\nX-Multi: two"} {
				if !strings.Contains(head, want) {
					t.Errorf("missing %q in:\n%s", want, head)
				}
			}
			for _, bad := range c.absent {
				if strings.Contains(got, bad) {
					t.Errorf("%q reached the replica:\n%s", bad, got)
				}
			}
		})
	}
}

// TestWireInformationalReplyIsAFailure: nothing the gateway sends asks for
// a 1xx, so one is a broken replica, not a reply to wait behind.
func TestWireInformationalReplyIsAFailure(t *testing.T) {
	checkGoroutineLeaks(t)
	stub := newRecordingStub(t, "HTTP/1.1 100 Continue\r\n\r\n"+cannedOK)
	g := mustGateway(t, GatewayConfig{Backends: []string{stub.URL}})
	w := through(g, httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader("{}")))
	if w.Code != http.StatusBadGateway {
		t.Fatalf("status %d, want 502: %s", w.Code, w.Body)
	}
	b := g.pool.Backends()[0]
	if b.failures.Load() != 1 || b.idleConns() != 0 {
		t.Errorf("failures=%d idle=%d, want 1 failure and the connection closed", b.failures.Load(), b.idleConns())
	}
}

func TestNewGatewayRefusesWhatTheWireCannotDial(t *testing.T) {
	for _, u := range []string{"https://127.0.0.1:1", "http://127.0.0.1:1/?q=1", "http://user@127.0.0.1:1", "ftp://x"} {
		if _, err := NewGateway(GatewayConfig{Backends: []string{u}}); err == nil {
			t.Errorf("NewGateway accepted backend %q", u)
		}
	}
	g, err := NewGateway(GatewayConfig{Backends: []string{"replica.internal", "http://10.0.0.1:8081/base/", "http://[::1]:81/a%20b"}})
	if err != nil {
		t.Fatal(err)
	}
	b := g.pool.Backends()
	if b[0].host != "replica.internal" || b[0].addr != "replica.internal:80" || b[0].prefix != "" {
		t.Errorf("backend 0 = %q %q %q", b[0].host, b[0].addr, b[0].prefix)
	}
	if b[1].host != "10.0.0.1:8081" || b[1].addr != "10.0.0.1:8081" || b[1].prefix != "/base" {
		t.Errorf("backend 1 = %q %q %q", b[1].host, b[1].addr, b[1].prefix)
	}
	if b[2].host != "[::1]:81" || b[2].addr != "[::1]:81" || b[2].prefix != "/a%20b" {
		t.Errorf("backend 2 = %q %q %q", b[2].host, b[2].addr, b[2].prefix)
	}
}

// ---- differential: the exchange against net/http's client ----

// seen is what the echo replica saw of one request.
type seen struct {
	Method, URI string
	Header      http.Header
	Length      int64
	Body        string
}

// echoReplica records every request and answers by path, one path per
// reply framing.
func echoReplica(t *testing.T) (*httptest.Server, func() seen) {
	var mu sync.Mutex
	var last seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		last = seen{r.Method, r.RequestURI, r.Header.Clone(), r.ContentLength, string(body)}
		mu.Unlock()
		w.Header()["Date"] = []string{"Thu, 01 Jan 2026 00:00:00 GMT"}
		w.Header().Add("X-Reply", "a")
		w.Header().Add("X-Reply", "b")
		switch r.URL.Path {
		case "/v1/chunked":
			w.Write(bytes.Repeat([]byte("c"), 3000))
			w.(http.Flusher).Flush()
			w.Write(bytes.Repeat([]byte("d"), 3000))
		case "/v1/close":
			w.Header().Set("Connection", "close")
			w.Write([]byte("bye"))
		case "/v1/204":
			w.WriteHeader(http.StatusNoContent)
		case "/v1/429":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"overloaded"}}`))
		default:
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.Write(body)
		}
	}))
	t.Cleanup(ts.Close)
	return ts, func() seen {
		mu.Lock()
		defer mu.Unlock()
		return last
	}
}

// exchangeOnce runs r through outbound and Backend.exchange as handleProxy
// does, without the attempt chain around it.
func exchangeOnce(t *testing.T, b *Backend, r *http.Request) (reply, []byte) {
	t.Helper()
	o := getOutbound()
	defer putOutbound(o)
	var err error
	if o.body, err = chassis.ReadAll(o.body, r.Body, r.ContentLength, maxBody); err != nil {
		t.Fatal(err)
	}
	if err := o.render(r); err != nil {
		t.Fatal(err)
	}
	buf := getBuffer()
	defer putBuffer(buf)
	rep, err := b.exchange(r.Context(), o, buf)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	return rep, bytes.Clone(buf.b)
}

func TestWireDifferentialAgainstNetHTTP(t *testing.T) {
	checkGoroutineLeaks(t)
	ts, lastSeen := echoReplica(t)
	g := mustGateway(t, GatewayConfig{Backends: []string{ts.URL}})
	b := g.pool.Backends()[0]
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()

	big := strings.Repeat("0123456789abcdef", 1<<16) // 1 MiB: past maxCoalesce
	cases := []struct {
		name, method, uri, body string
		header                  http.Header
		pooled                  int // idle connections after the exchange
	}{
		{"empty body", "POST", "/v1/match", "", nil, 1},
		{"get", "GET", "/v1/match", "", nil, 1},
		{"1 MiB body", "POST", "/v1/match", big, nil, 1},
		{"query string", "POST", "/v1/match?a=1&b=%20x&c=%2F", `{"q":1}`, nil, 1},
		{"repeated headers", "POST", "/v1/match", `{}`, http.Header{"X-Multi": {"one", "two", ""}, "Accept": {"*/*"}}, 1},
		{"client deadline header is end-to-end", "POST", "/v1/match", `{}`, http.Header{"X-Adwars-Deadline": {"50"}}, 1},
		{"chunked reply", "POST", "/v1/chunked", `{}`, nil, 1},
		{"connection-close reply", "POST", "/v1/close", `{}`, nil, 0},
		{"204 reply", "POST", "/v1/204", `{}`, nil, 1},
		{"429 reply", "POST", "/v1/429", `{}`, nil, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build := func(base string) *http.Request {
				r, err := http.NewRequest(c.method, base+c.uri, strings.NewReader(c.body))
				if err != nil {
					t.Fatal(err)
				}
				r.Header.Set("User-Agent", "differential/1")
				r.Header.Set("Content-Type", "application/json")
				for k, vs := range c.header {
					r.Header[k] = vs
				}
				return r
			}

			resp, err := client.Do(build(ts.URL))
			if err != nil {
				t.Fatal(err)
			}
			wantBody, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			wantSeen := lastSeen()

			b.closeIdle()
			rep, gotBody := exchangeOnce(t, b, build(""))
			gotSeen := lastSeen()

			// The replica must not be able to tell the two clients apart but
			// for Content-Length, which net/http leaves off a bodyless GET and
			// the exchange always sends; Length is what either framed.
			for _, h := range []http.Header{gotSeen.Header, wantSeen.Header} {
				delete(h, "Content-Length")
			}
			if !reflect.DeepEqual(gotSeen, wantSeen) {
				t.Errorf("replica saw\n %+.200v\nthrough the exchange, want what net/http sent:\n %+.200v", gotSeen, wantSeen)
			}

			if rep.status != resp.StatusCode || !reflect.DeepEqual(rep.header, resp.Header) || !bytes.Equal(gotBody, wantBody) {
				t.Errorf("reply %d %v %.60q\nwant  %d %v %.60q", rep.status, rep.header, gotBody, resp.StatusCode, resp.Header, wantBody)
			}
			if got := b.idleConns(); got != c.pooled {
				t.Errorf("idle connections after the exchange = %d, want %d", got, c.pooled)
			}
		})
	}
}

// ---- connection lifetime ----

// TestWireStaleKeepAliveIsRedialledNotCharged: a replica that closed our
// idle connection has not failed; the request is resent on a fresh
// connection and no ledger moves but the pool's own.
func TestWireStaleKeepAliveIsRedialledNotCharged(t *testing.T) {
	checkGoroutineLeaks(t)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	g := mustGateway(t, GatewayConfig{Backends: []string{ts.URL}})
	b := g.pool.Backends()[0]
	post := func() int {
		return through(g, httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader("{}"))).Code
	}
	for round := uint64(1); round <= 3; round++ {
		if code := post(); code != 200 {
			t.Fatalf("round %d: status %d", round, code)
		}
		if b.idleConns() != 1 {
			t.Fatalf("round %d: %d idle connections, want 1", round, b.idleConns())
		}
		if got := b.staleRedials.Load(); got != round-1 {
			t.Fatalf("round %d: stale_redials = %d, want %d", round, got, round-1)
		}
		ts.CloseClientConnections()
	}
	snap := snapshotOf(t, g)
	if snap.Retries != 0 || snap.Failovers != 0 || snap.NoBackend != 0 || snap.Backends[0].Failures != 0 {
		t.Errorf("a stale connection was charged to the backend: %+v", snap)
	}
	if bs := snap.Backends[0]; bs.Dials != 3 || bs.StaleRedials != 2 || bs.Requests != 3 || bs.BudgetTokens != 10 {
		t.Errorf("backend = %+v, want 3 dials, 2 stale redials, 3 requests, a full budget", bs)
	}
	if hits.Load() != 3 {
		t.Errorf("replica handled %d requests, want 3", hits.Load())
	}
}

// TestWireBrokenReplyFailsOverAndIsNotResent: once a reply has started, a
// connection that dies is the backend failing — even a reused connection —
// and the request goes to the other backend, never again to this one.
func TestWireBrokenReplyFailsOverAndIsNotResent(t *testing.T) {
	checkGoroutineLeaks(t)
	var got atomic.Int64
	flaky := newRawStub(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		for {
			if _, ok := readRawRequest(br); !ok {
				return
			}
			if got.Add(1) == 1 {
				io.WriteString(c, cannedOK)
				continue
			}
			// Second request on the kept-alive connection: half a reply,
			// then gone.
			io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial")
			return
		}
	})
	good := newRecordingStub(t, cannedOK)
	g := mustGateway(t, GatewayConfig{Backends: []string{flaky.URL, good.URL}})
	for i := 0; i < 4; i++ {
		w := through(g, httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader("{}")))
		if w.Code != 200 || w.Body.String() != "{}" {
			t.Fatalf("request %d: %d %q", i, w.Code, w.Body)
		}
	}
	snap := snapshotOf(t, g)
	if got.Load() != 2 {
		t.Errorf("flaky replica received %d requests, want 2: the broken one must not be resent to it", got.Load())
	}
	if n := len(good.requests()); n != 3 {
		t.Errorf("good replica received %d requests, want 3 (two of its own, one failed over)", n)
	}
	if snap.Retries != 1 || snap.Failovers != 1 || snap.Backends[0].Failures != 1 || snap.Backends[0].StaleRedials != 0 {
		t.Errorf("ledger = %+v, want one retry, one failover, one failure, no stale redial", snap)
	}
}

// silentStub reads requests and never answers; arrived and closed signal a
// request fully read and the gateway's end of the connection closed.
func silentStub(t *testing.T) (stub *rawStub, arrived, closed chan struct{}) {
	arrived, closed = make(chan struct{}, 8), make(chan struct{}, 8)
	stub = newRawStub(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		if _, ok := readRawRequest(br); !ok {
			return
		}
		arrived <- struct{}{}
		br.ReadByte() // returns when the gateway closes
		closed <- struct{}{}
	})
	return stub, arrived, closed
}

func awaitSignal(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// A try ends at the per-try timeout or at the client's deadline, whichever is
// first: a 10ms deadline on the request bounds the try below its 5s.
func TestWirePerTryTimeoutFreesTheConnection(t *testing.T) {
	checkGoroutineLeaks(t)
	stub, arrived, closed := silentStub(t)
	g := mustGateway(t, GatewayConfig{Backends: []string{stub.URL}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	w := through(g, httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader("{}")).WithContext(ctx))
	if body := w.Body.String(); w.Code != http.StatusBadGateway ||
		!strings.Contains(body, "timeout") && !strings.Contains(body, "deadline exceeded") {
		t.Fatalf("status %d %s, want a 502 naming the timeout", w.Code, body)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("a 10ms deadline took %v", took)
	}
	awaitSignal(t, arrived, "the request")
	awaitSignal(t, closed, "the gateway to close the timed-out connection")
	if b := g.pool.Backends()[0]; b.idleConns() != 0 || b.failures.Load() != 1 {
		t.Errorf("idle=%d failures=%d, want nothing pooled and one failure", b.idleConns(), b.failures.Load())
	}
}

func TestWireClientDisconnectCancelsTheExchange(t *testing.T) {
	checkGoroutineLeaks(t)
	stub, arrived, closed := silentStub(t)
	g := mustGateway(t, GatewayConfig{Backends: []string{stub.URL}}) // per-try 5s: only the cancel can end it
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- through(g, httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader("{}")).WithContext(ctx))
	}()
	awaitSignal(t, arrived, "the request")
	cancel() // the client went away
	select {
	case w := <-done:
		if w.Code != http.StatusBadGateway {
			t.Errorf("status %d, want 502", w.Code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler still running 2s after its client left")
	}
	awaitSignal(t, closed, "the gateway to close the cancelled connection")
	// The client left; the replica did nothing wrong.
	if b := g.pool.Backends()[0]; b.idleConns() != 0 || b.failures.Load() != 0 || b.ejections.Load() != 0 {
		t.Errorf("idle=%d failures=%d ejections=%d after a cancelled exchange, want all 0",
			b.idleConns(), b.failures.Load(), b.ejections.Load())
	}
}

// ---- concurrency ----

// TestGatewayConcurrentStress: many requests at once on pooled buffers and
// connections, one backend slow on every third reply. Every reply must be
// the echo of its own request — a buffer or connection handed on while
// still in use would show here, and under -race as a report — and no
// backend that only answered slowly may be charged a failure.
func TestGatewayConcurrentStress(t *testing.T) {
	checkGoroutineLeaks(t)
	var n atomic.Int64
	echo := func(slowEvery int64) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			if slowEvery > 0 && n.Add(1)%slowEvery == 0 {
				select {
				case <-time.After(20 * time.Millisecond):
				case <-r.Context().Done():
				}
			}
			w.Write(body)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := echo(3), echo(0)
	g := mustGateway(t, GatewayConfig{Backends: []string{a.URL, b.URL}})
	const workers, each = 8, 25
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				body := fmt.Sprintf(`{"worker":%d,"i":%d,"pad":%q}`, wk, i, strings.Repeat("x", 37*i))
				w := through(g, httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader(body)))
				if w.Code != 200 || w.Body.String() != body {
					state := ""
					if w.Code == http.StatusBadGateway {
						state = "; backends: " + backendsState(g)
					}
					t.Errorf("worker %d request %d: %d %.80q, want the echo of %.80q%s", wk, i, w.Code, w.Body, body, state)
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	snap := snapshotOf(t, g)
	if snap.Proxied != workers*each || snap.NoBackend != 0 {
		t.Errorf("proxied=%d no_backend=%d, want %d and 0", snap.Proxied, snap.NoBackend, workers*each)
	}
	for _, b := range snap.Backends {
		if b.Failures != 0 || b.Ejections != 0 {
			t.Errorf("%s: failures=%d ejections=%d, want 0 and 0", b.URL, b.Failures, b.Ejections)
		}
	}
}

// backendsState is what a no_backend reply was decided on, per backend: its
// breaker state, idle keep-alive connections, last health verdict, and the
// failures and ejections counted so far.
func backendsState(g *Gateway) string {
	var out []string
	for _, b := range g.Pool().Backends() {
		out = append(out, fmt.Sprintf("%s breaker=%s idle=%d healthy=%v failures=%d ejections=%d",
			b.URL, b.br.State(), b.idleConns(), b.healthy.Load(), b.failures.Load(), b.ejections.Load()))
	}
	return strings.Join(out, "; ")
}

// ---- the pool is visible, and drains ----

func TestServeDrainClosesIdleBackendConnections(t *testing.T) {
	checkGoroutineLeaks(t)
	var open atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			// The health loop's own client is not what is under test:
			// keep its connections out of the count.
			w.Header().Set("Connection", "close")
		}
		w.Write([]byte(`{"replica":"stub"}`))
	}))
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	ts.Start()
	defer ts.Close()

	g, err := NewGateway(GatewayConfig{Backends: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- g.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{}}
	read := func(resp *http.Response, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return body
	}
	for i := 0; i < 3; i++ {
		read(client.Post(base+"/v1/match", "application/json", strings.NewReader("{}")))
	}

	// The pool shows in both trees, under new keys only.
	for _, path := range []string{"/healthz", "/debug/vars"} {
		doc := string(read(client.Get(base + path)))
		for _, want := range []string{`"dials":1`, `"stale_redials":0`, `"idle_conns":1`} {
			if !strings.Contains(doc, want) {
				t.Errorf("%s lacks %s: %s", path, want, doc)
			}
		}
	}

	client.CloseIdleConnections()
	stop()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if n := g.pool.Backends()[0].idleConns(); n != 0 {
		t.Errorf("%d idle backend connections after the drain", n)
	}
	waitFor(t, "the replica to see every connection closed", func() bool { return open.Load() == 0 })
}

// ---- allocation ceilings ----

// memWriter is the smallest http.ResponseWriter; reused across runs it
// allocates nothing, so what AllocsPerRun counts is the gateway.
type memWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(s int)   { w.status = s }
func (w *memWriter) Write(p []byte) (int, error) {
	w.body = append(w.body[:0], p...)
	return len(p), nil
}

// rewinder is a request body that can be sent again.
type rewinder struct{ *bytes.Reader }

func (rewinder) Close() error { return nil }

// TestProxyAllocs pins what one proxied request allocates on the gateway's
// side of the hop — the in-tree form of the benchmark's fleet.hop_allocs,
// minus the client-facing net/http server. The replica is a TCP stub that
// answers from a fixed buffer and allocates nothing per request.
func TestProxyAllocs(t *testing.T) {
	const body = `{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`
	stub := newRawStub(t, func(c net.Conn) {
		buf := make([]byte, 4096)
		reply := []byte(cannedOK)
		for n := 0; ; {
			m, err := c.Read(buf[n:])
			if err != nil {
				return
			}
			n += m
			if i := bytes.Index(buf[:n], []byte("\r\n\r\n")); i >= 0 && n == i+4+len(body) {
				if _, err := c.Write(reply); err != nil {
					return
				}
				n = 0
			}
		}
	})
	g := mustGateway(t, GatewayConfig{Backends: []string{stub.URL}})
	h := g.Handler()
	rd := rewinder{bytes.NewReader([]byte(body))}
	r := httptest.NewRequest(http.MethodPost, "/v1/match", rd)
	r.ContentLength = int64(len(body))
	r.Header.Set("Content-Type", "application/json")
	r.Header.Set("User-Agent", "Go-http-client/1.1")
	r.Header.Set("Accept-Encoding", "gzip")
	w := &memWriter{header: http.Header{}}
	run := func() {
		rd.Seek(0, io.SeekStart)
		r.Body = rd
		h.ServeHTTP(w, r)
	}
	run()
	if w.status != 200 || string(w.body) != "{}" {
		t.Fatalf("warm-up: %d %q", w.status, w.body)
	}
	// Measured 17 at this commit (the parent, through http.Transport,
	// allocated 87 here): ReadResponse's reply, header map and values,
	// context.AfterFunc's registration, MaxBytesReader.
	const ceiling = 17 + 2
	if got := testing.AllocsPerRun(200, run); got > ceiling {
		t.Errorf("one proxied request allocates %.1f times on the gateway, ceiling %d", got, ceiling)
	}
	if b := g.pool.Backends()[0]; b.dials.Load() != 1 {
		t.Errorf("%d dials: the runs did not share one kept-alive connection", b.dials.Load())
	}
}

// TestLearnIDStoresOnlyOnChange: every proxied reply names its replica, and
// naming it again must cost nothing.
func TestLearnIDStoresOnlyOnChange(t *testing.T) {
	b := newBackend("http://x")
	b.learnID("r1")
	id := string([]byte("r1")) // not the same string header, the same name
	if got := testing.AllocsPerRun(100, func() { b.learnID(id) }); got != 0 {
		t.Errorf("learnID of a known name allocates %.0f times", got)
	}
	b.learnID("")
	if b.ID() != "r1" {
		t.Errorf("ID = %q after an empty name, want r1", b.ID())
	}
	b.learnID("r2")
	if b.ID() != "r2" {
		t.Errorf("ID = %q, want r2 after the replica was replaced", b.ID())
	}
}

// ---- hostile replies ----

// FuzzBackendReply: whatever bytes a replica answers with — and whether it
// then closes or sits silent — the gateway does not panic, does not hang
// past its per-try timeout, and keeps the connection only after a reply
// that an independent parse finds complete, keep-alive and followed by
// nothing.
func FuzzBackendReply(f *testing.F) {
	for _, s := range []string{
		cannedOK,
		cannedOK + "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", // an unsolicited second reply
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}x",
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nuntil close",
		"HTTP/1.0 200 OK\r\n\r\nold",
		"HTTP/1.1 100 Continue\r\n\r\n" + cannedOK,
		"HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\n\r\n",
		"HTTP/1.1 204 No Content\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 000 \r\n\r\n",
		"HTTP/1.1 999 Odd\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 503 Draining\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX Bad: 1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-Fold: a\r\n b\r\nContent-Length: 0\r\n\r\n",
		"HTTP/9.9 200 OK\r\n\r\n",
		"\r\n\r\n", "", "\x00", "HTTP/1.1 200",
	} {
		f.Add([]byte(s), true)
		f.Add([]byte(s), false)
	}
	type script struct {
		reply     []byte
		thenClose bool
	}
	var next atomic.Pointer[script]
	stub := newRawStub(f, func(c net.Conn) {
		br := bufio.NewReader(c)
		if _, ok := readRawRequest(br); !ok {
			return
		}
		s := next.Load()
		c.Write(s.reply)
		if !s.thenClose {
			br.ReadByte() // silent until the gateway gives up
		}
	})
	const perTry = 20 * time.Millisecond // the client's deadline, narrowing the try
	f.Fuzz(func(t *testing.T, replyBytes []byte, thenClose bool) {
		if len(replyBytes) > 2048 {
			// One segment, one read: what was sent is what was buffered, so
			// "followed by nothing" can be judged.
			t.Skip()
		}
		next.Store(&script{replyBytes, thenClose})
		g, err := NewGateway(GatewayConfig{Backends: []string{stub.URL}})
		if err != nil {
			t.Fatal(err)
		}
		defer g.pool.closeIdle()
		ctx, cancel := context.WithTimeout(context.Background(), perTry)
		defer cancel()
		r := httptest.NewRequest(http.MethodPost, "/v1/match", strings.NewReader("{}")).WithContext(ctx)
		start := time.Now()
		w := through(g, r)
		if took := time.Since(start); took > 50*perTry {
			t.Fatalf("handler took %v with a per-try timeout of %v", took, perTry)
		}

		// The oracle: the same bytes through net/http's own reader.
		br := bufio.NewReader(bytes.NewReader(replyBytes))
		resp, err := http.ReadResponse(br, r)
		var body []byte
		complete := false
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			complete = err == nil && resp.StatusCode >= 200
		}
		b := g.pool.Backends()[0]
		if b.idleConns() > 0 {
			if !complete || resp.Close || br.Buffered() > 0 {
				t.Fatalf("connection pooled after %q", replyBytes)
			}
		}
		switch {
		case complete && resp.StatusCode < 500 && (thenClose || !resp.Close):
			// A whole answer, and its end is not a close we never send.
			if w.Code != resp.StatusCode || !bytes.Equal(w.Body.Bytes(), body) {
				t.Fatalf("relayed %d %q, the reply was %d %q", w.Code, w.Body, resp.StatusCode, body)
			}
		case !complete || resp.StatusCode >= 500:
			if w.Code != http.StatusBadGateway || b.failures.Load() != 1 {
				t.Fatalf("status %d, failures %d after %q: want a 502 and one failure", w.Code, b.failures.Load(), replyBytes)
			}
		}
	})
}
