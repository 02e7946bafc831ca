package wire_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"adwars/internal/abp"
	"adwars/internal/serve"
	"adwars/internal/wire"
)

// ---- fixtures ----

const matchBody = `{"url":"http://ads.example.com/banner.js","type":"script","page_domain":"news.example"}`

// newServe builds a serve.Server over one small list: the handler tree the
// loop exists to carry.
func newServe(t testing.TB, cfg serve.Config) *serve.Server {
	t.Helper()
	l, errs := abp.ParseAndBuild("list-a", "||ads.example.com^\n@@||ads.example.com/allowed$script\n")
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	cfg.ListsPath = filepath.Join(t.TempDir(), "lists.snapshot")
	if err := abp.SaveListsSnapshot(cfg.ListsPath, &abp.ListsSnapshot{Label: "test", Lists: []*abp.List{l}}); err != nil {
		t.Fatal(err)
	}
	s := serve.New(cfg)
	t.Cleanup(func() { s.CloseAnalytics() })
	if err := s.ReloadSnapshots(); err != nil {
		t.Fatal(err)
	}
	return s
}

// startWire serves h on the loop, on a fresh loopback port; window 0 keeps
// the loop's own. The cleanup drains it and fails the test on anything but
// a clean drain.
func startWire(t testing.TB, h http.Handler, window time.Duration) (srv *wire.Server, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = &wire.Server{Handler: h}
	if window > 0 {
		srv.SetWindow(window)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String()
}

// startStd serves h on net/http's server: the reference.
func startStd(t testing.TB, h http.Handler) (addr string) {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	t.Cleanup(ts.Close)
	return ts.Listener.Addr().String()
}

// step is one move of a scripted client: bytes to send, then one reply to
// read for each method named (the method decides how a reply is framed).
type step struct {
	send    string
	methods []string
}

// reply is what the client made of one reply; status 0 means the connection
// ended, or carried something else, where a reply was due.
type reply struct {
	status int
	header http.Header // all but framing and Date
	body   string
	close  bool
}

// converse plays steps on one connection and then reports whether the
// server has closed it. Every final reply that does not announce a close
// must be one the gateway's backend wire would pool behind: complete,
// keep-alive and, once the step's replies are read, followed by nothing.
func converse(t *testing.T, addr string, steps []step) (replies []reply, closed bool) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	for _, st := range steps {
		go io.WriteString(c, st.send) // a server may stop reading before the end
		for _, method := range st.methods {
			resp, err := http.ReadResponse(br, &http.Request{Method: method})
			if err != nil {
				replies = append(replies, reply{})
				continue
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("reading a %d reply's body: %v", resp.StatusCode, err)
			}
			h := resp.Header.Clone()
			for _, k := range []string{"Date", "Content-Length", "Connection"} {
				h.Del(k)
			}
			if v := h.Get("Retry-After"); v == "1" || v == "2" || v == "3" {
				h.Set("Retry-After", "jittered") // serve draws it per reply
			}
			replies = append(replies, reply{resp.StatusCode, h, string(body), resp.Close})
		}
		if last := replies[len(replies)-1]; last.status >= 200 && !last.close && br.Buffered() != 0 {
			t.Errorf("%d bytes follow a keep-alive %d reply", br.Buffered(), last.status)
		}
	}
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	_, err = br.ReadByte()
	var ne net.Error
	switch {
	case err == nil:
		t.Error("the server sent more than it was asked for")
	case errors.As(err, &ne) && ne.Timeout():
		return replies, false
	}
	return replies, true
}

// shedReplica returns a replica that sheds every request at admission: its
// one worker is held by a request whose reply's Write blocks, and its queue
// of one by a request waiting behind it. Cleanup lets both finish.
func shedReplica(t *testing.T) *serve.Server {
	t.Helper()
	s := newServe(t, serve.Config{ReplicaID: "r1", Workers: 1, Queue: 1, QueueTimeout: time.Minute})
	held, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	serveOne := func(w http.ResponseWriter) {
		defer wg.Done()
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/match", strings.NewReader(matchBody)))
	}
	wg.Add(2)
	go serveOne(&heldWriter{ResponseRecorder: httptest.NewRecorder(), held: held, release: release})
	<-held
	go serveOne(httptest.NewRecorder())
	t.Cleanup(func() {
		close(release)
		wg.Wait()
	})
	// The queued request signals nothing when it starts waiting; the
	// replica's own gauge does.
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(s.Metrics().String(), `"queue_depth":1`); {
		if time.Now().After(deadline) {
			t.Fatal("the second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	return s
}

// heldWriter holds its request's worker slot: the replica writes its reply
// before it releases the slot, and Write waits for release.
type heldWriter struct {
	*httptest.ResponseRecorder
	once          sync.Once
	held, release chan struct{}
}

func (w *heldWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.held) })
	<-w.release
	return w.ResponseRecorder.Write(p)
}

func post(path, extraHeaders, body string) string {
	return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n%sContent-Length: %d\r\n\r\n%s",
		path, extraHeaders, len(body), body)
}

// TestConformanceAgainstNetHTTP plays the same bytes to net/http's server
// and to the loop, both over the same handler, and wants the same replies
// — status, body, every header but the framing — and the same fate for
// the connection.
func TestConformanceAgainstNetHTTP(t *testing.T) {
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard) // both servers log the panic case

	s := newServe(t, serve.Config{ReplicaID: "r0"})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	// A client that dies mid-body: serve reads three bytes, then
	// io.ErrUnexpectedEOF.
	mux.Handle("/trunc/", http.StripPrefix("/trunc", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = io.NopCloser(io.MultiReader(io.LimitReader(r.Body, 3), iotest.ErrReader(io.ErrUnexpectedEOF)))
		s.Handler().ServeHTTP(w, r)
	})))
	// A second replica, its one worker held and its queue full, sheds
	// every request with a 429 and a Retry-After.
	shed := shedReplica(t)
	mux.Handle("/shed/", http.StripPrefix("/shed", shed.Handler()))
	mux.HandleFunc("/raw/abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	mux.HandleFunc("/raw/unread", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("X-Seen", r.Method)
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, "left it")
	})
	mux.HandleFunc("/raw/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	mux.HandleFunc("/raw/big", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Write(bytes.Repeat([]byte("0123456789abcdef"), 100_000/16*2)) // past one Write's worth
	})

	get := "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
	match := post("/v1/match", "", matchBody)
	P, G, H := "POST", "GET", "HEAD"
	cases := []struct {
		name  string
		steps []step
	}{
		{"keep-alive reuse", []step{{match, []string{P}}, {match, []string{P}}, {get, []string{G}}}},
		{"connection close", []step{{post("/v1/match", "Connection: close\r\n", matchBody), []string{P}}}},
		{"http/1.0", []step{{"POST /v1/match HTTP/1.0\r\nContent-Length: " + fmt.Sprint(len(matchBody)) + "\r\n\r\n" + matchBody, []string{P}}}},
		{"http/1.0 keep-alive", []step{
			{"GET /readyz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", []string{G}},
			{"GET /readyz HTTP/1.0\r\n\r\n", []string{G}}}},
		{"chunked request body", []step{
			{"POST /v1/match HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n" +
				fmt.Sprintf("10\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n", matchBody[:16], len(matchBody)-16, matchBody[16:]), []string{P}},
			{get, []string{G}}}},
		{"expect 100-continue", []step{
			{strings.TrimSuffix(post("/v1/match", "Expect: 100-continue\r\n", matchBody), matchBody), []string{P}}, // the 100
			{matchBody, []string{P}},
			{get, []string{G}}}},
		// The client of this one does not wait for its 100, or the reference
		// would: net/http reads on for the body it never asked for.
		{"expect 100-continue, body never wanted", []step{
			{"PUT /v1/match HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\nhello", []string{"PUT"}}}},
		{"head", []step{{"HEAD /readyz HTTP/1.1\r\nHost: x\r\n\r\n", []string{H}}, {get, []string{G}}}},
		{"two pipelined", []step{{match + get, []string{P, G}}}},
		{"three pipelined, the second says close", []step{
			{get + post("/v1/match", "Connection: close\r\n", matchBody) + get, []string{G, P}}}},
		{"body over maxBody", []step{{post("/v1/match", "", `{"url":"`+strings.Repeat("x", 1<<20)+`"}`), []string{P}}, {get, []string{G}}}},
		{"method not allowed", []step{{"GET /v1/match HTTP/1.1\r\nHost: x\r\n\r\n", []string{G}}}},
		{"refused with retry-after", []step{{post("/shed/v1/match/batch", "", `{"requests":[`+matchBody+`]}`), []string{P}}, {get, []string{G}}}},
		{"not found", []step{{post("/v1/nope", "", "{}"), []string{P}}}},
		{"handler leaves a small body unread", []step{{post("/raw/unread", "", strings.Repeat("u", 3000)), []string{P}}, {get, []string{G}}}},
		{"handler leaves a large body unread", []step{{post("/raw/unread", "", strings.Repeat("u", 300<<10)), []string{P}}}},
		{"handler panics", []step{{get, []string{G}}, {"GET /raw/panic HTTP/1.1\r\nHost: x\r\n\r\n", []string{G}}}},
		{"handler aborts", []step{{post("/raw/abort", "", matchBody), []string{P}}}},
		{"chaos truncated body", []step{{post("/trunc/v1/match", "", matchBody), []string{P}}, {get, []string{G}}}},
		{"large reply", []step{{"GET /raw/big HTTP/1.1\r\nHost: x\r\n\r\n", []string{G}}, {get, []string{G}}}},
	}
	stdAddr := startStd(t, mux)
	_, wireAddr := startWire(t, mux, 0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantClosed := converse(t, stdAddr, tc.steps)
			got, gotClosed := converse(t, wireAddr, tc.steps)
			if len(got) != len(want) {
				t.Fatalf("%d replies, net/http gave %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("reply %d:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
			if gotClosed != wantClosed {
				t.Errorf("connection closed = %v, under net/http %v", gotClosed, wantClosed)
			}
			if tc.name == "refused with retry-after" && (want[0].status != http.StatusTooManyRequests || want[0].header.Get("Retry-After") != "jittered") {
				t.Errorf("reply %d, Retry-After %q: want a 429 with a jittered Retry-After", want[0].status, want[0].header.Get("Retry-After"))
			}
		})
	}
}

// ---- what is not a request ----

func TestMalformedHeadGets400AndClose(t *testing.T) {
	_, addr := startWire(t, newServe(t, serve.Config{}).Handler(), 0)
	for _, head := range []string{
		"NOT A REQUEST\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nBad Header\r\n\r\n",
		"POST /v1/match HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}x",
	} {
		replies, closed := converse(t, addr, []step{{head, []string{"GET"}}})
		if replies[0].status != http.StatusBadRequest || !replies[0].close || !closed {
			t.Errorf("%q: reply %+v, closed %v; want a 400 that closes", head, replies[0], closed)
		}
	}
}

// ---- the coarse deadline ----

// awaitEnd reads c to its end and reports what arrived and how long the
// end took; it fails if the connection outlives limit.
func awaitEnd(t *testing.T, c net.Conn, limit time.Duration) (got []byte, took time.Duration) {
	t.Helper()
	start := time.Now()
	c.SetReadDeadline(start.Add(limit))
	got, err := io.ReadAll(c)
	if err != nil {
		t.Errorf("connection still open after %v: %v", limit, err)
	}
	return got, time.Since(start)
}

// TestReadWindow: a connection that stops mid-request, wherever it stops,
// is dropped within one window, a request head past the cap gets 431, and
// neither touches a connection that keeps asking — which, by asking, also
// outlives the window many times over.
func TestReadWindow(t *testing.T) {
	const window = 200 * time.Millisecond
	_, addr := startWire(t, newServe(t, serve.Config{}).Handler(), window)
	start := time.Now()

	// The healthy connection: a request every 10ms for five windows.
	healthy := make(chan error, 1)
	stop := make(chan struct{})
	go func() {
		healthy <- func() error {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return err
			}
			defer c.Close()
			br := bufio.NewReader(c)
			for n := 0; ; n++ {
				select {
				case <-stop:
					if n < 20 {
						return fmt.Errorf("only %d requests", n)
					}
					return nil
				case <-time.After(10 * time.Millisecond):
				}
				if _, err := io.WriteString(c, post("/v1/match", "", matchBody)); err != nil {
					return fmt.Errorf("request %d: %w", n, err)
				}
				resp, err := http.ReadResponse(br, nil)
				if err != nil {
					return fmt.Errorf("reply %d: %w", n, err)
				}
				io.Copy(io.Discard, resp.Body)
				if resp.StatusCode != 200 || resp.Close {
					return fmt.Errorf("reply %d: status %d, close %v", n, resp.StatusCode, resp.Close)
				}
			}
		}()
	}()

	var wg sync.WaitGroup
	for name, sent := range map[string]string{
		"idle":             "",
		"stalled head":     "POST /v1/ma",
		"stalled headers":  "POST /v1/match HTTP/1.1\r\nHost: x\r\nContent-Le",
		"stalled body":     "POST /v1/match HTTP/1.1\r\nHost: x\r\nContent-Length: 90\r\n\r\n{\"url\":",
		"stalled pipeline": post("/v1/match", "", matchBody) + "POST /v1/ma",
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			io.WriteString(c, sent)
			_, took := awaitEnd(t, c, 5*window)
			if took < window/2-20*time.Millisecond || took > window+150*time.Millisecond {
				t.Errorf("%s: dropped after %v, want between half a window and one (%v)", name, took, window)
			}
		}()
	}

	// A trickled body: a byte every 20ms would take 1.8s; the window cuts it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		io.WriteString(c, "POST /v1/match HTTP/1.1\r\nHost: x\r\nContent-Length: 90\r\n\r\n")
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < len(matchBody); i++ {
				if _, err := c.Write([]byte{matchBody[i]}); err != nil {
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
		}()
		got, took := awaitEnd(t, c, 5*window)
		if took > window+150*time.Millisecond {
			t.Errorf("trickled body: dropped after %v, window %v", took, window)
		}
		if !bytes.HasPrefix(got, []byte("HTTP/1.1 400 ")) || !bytes.Contains(got, []byte("Connection: close")) {
			t.Errorf("trickled body: got %q, want the handler's 400 and a close", got)
		}
		<-done
	}()

	// A head over the cap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		go io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\nX-Long: "+strings.Repeat("a", 1<<20+8<<10)+"\r\n\r\n")
		got, _ := awaitEnd(t, c, 5*time.Second)
		if !bytes.HasPrefix(got, []byte("HTTP/1.1 431 ")) {
			t.Errorf("over-long head: got %.80q, want a 431", got)
		}
	}()

	wg.Wait()
	time.Sleep(time.Until(start.Add(5 * window)))
	close(stop)
	if err := <-healthy; err != nil {
		t.Errorf("the healthy connection: %v", err)
	}
}

// ---- the drain contract ----

func goroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownDrains: the listener closes, an idle connection is closed at
// once, a request in flight is answered whole and told the connection is
// closing, Serve and Shutdown return, and no goroutine is left.
func TestShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
		}
		io.WriteString(w, "done")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	io.WriteString(idle, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	idleBr := bufio.NewReader(idle)
	if resp, err := http.ReadResponse(idleBr, nil); err != nil || resp.Close {
		t.Fatalf("warming the idle connection: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	busy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	io.WriteString(busy, "GET /slow HTTP/1.1\r\nHost: x\r\n\r\nGET /never HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	if got, _ := awaitEnd(t, idle, time.Second); len(got) != 0 {
		t.Errorf("the idle connection got %q", got)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Error("the listener still accepts")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	got, _ := awaitEnd(t, busy, time.Second)
	resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(got)), nil)
	if err != nil {
		t.Fatalf("the reply in flight: %v (%q)", err, got)
	}
	if body, _ := io.ReadAll(resp.Body); string(body) != "done" || !resp.Close || bytes.Count(got, []byte("HTTP/1.1")) != 1 {
		t.Errorf("in flight: %q; want one whole reply that says close, and the pipelined request unanswered", got)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	goroutinesSettle(t, before)
}

// TestShutdownTimesOut: a handler that outlasts the drain makes Shutdown
// return the context's error, and its connection is closed under it, so
// its goroutine ends with the handler.
func TestShutdownTimesOut(t *testing.T) {
	before := runtime.NumGoroutine()
	entered, release := make(chan struct{}), make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &wire.Server{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	io.WriteString(c, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown returned %v, want the deadline", err)
	}
	<-served
	if got, _ := awaitEnd(t, c, time.Second); len(got) != 0 {
		t.Errorf("the abandoned connection got %q", got)
	}
	close(release)
	goroutinesSettle(t, before)
}

// TestShutdownBeforeServe: Serve after Shutdown does not serve.
func TestShutdownBeforeServe(t *testing.T) {
	srv := &wire.Server{Handler: http.NotFoundHandler()}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v", err)
	}
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		c.Close()
		t.Error("the listener was left open")
	}
}

// ---- allocations ----

// TestWireAllocs pins what the loop itself allocates per request on a
// kept-alive connection at nothing: a whole round trip through the loop
// allocates exactly what http.ReadRequest allocates parsing the same bytes.
// (AllocsPerRun counts the process's allocations, so the serving goroutine
// is in the figure; the client side here allocates nothing.)
func TestWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	ok := []string{"text/plain"}
	buf := make([]byte, 256) // one connection, one request at a time
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for {
			if _, err := r.Body.Read(buf); err != nil {
				break
			}
		}
		w.Header()["Content-Type"] = ok
		w.WriteHeader(http.StatusOK)
		w.Write(buf[:64])
	})
	_, addr := startWire(t, h, 0)
	request := []byte(post("/v1/match", "", matchBody))

	parse := bufio.NewReader(nil)
	src := bytes.NewReader(nil)
	var drain [256]byte
	parseOnly := testing.AllocsPerRun(500, func() {
		src.Reset(request)
		parse.Reset(src)
		req, err := http.ReadRequest(parse)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := req.Body.Read(drain[:]); err != nil {
				break
			}
		}
	})

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	replyBuf := make([]byte, 4096)
	roundTrip := func() {
		if _, err := c.Write(request); err != nil {
			t.Fatal(err)
		}
		// One small reply, one segment: a single Read takes all of it.
		n, err := c.Read(replyBuf)
		if err != nil || !bytes.HasPrefix(replyBuf[:n], []byte("HTTP/1.1 200 OK\r\n")) {
			t.Fatalf("reply %q, %v", replyBuf[:n], err)
		}
	}
	for i := 0; i < 10; i++ {
		roundTrip() // buffers reach their size, the date is rendered
	}
	through := testing.AllocsPerRun(500, roundTrip)
	if through > parseOnly {
		t.Fatalf("a round trip allocates %.1f, http.ReadRequest alone %.1f: the loop allocates %.1f per request, want 0",
			through, parseOnly, through-parseOnly)
	}
	t.Logf("round trip %.1f allocs, of which http.ReadRequest %.1f", through, parseOnly)
}

// ---- fuzz ----

// FuzzServeConn: whatever bytes arrive on a connection, the loop neither
// panics nor keeps the connection past its window; and when the client ends
// its side after them, every request http.ReadRequest finds in the bytes is
// answered, in order, with the status and body the same handler gives
// httptest for it.
func FuzzServeConn(f *testing.F) {
	get := "GET /v1/match HTTP/1.1\r\nHost: x\r\n\r\n"
	for _, s := range []string{
		post("/v1/match", "", matchBody),
		post("/v1/match", "", matchBody) + get + post("/v1/classify", "", "var a;"),
		post("/v1/match", "Connection: close\r\n", matchBody) + get,
		post("/v1/match", "Expect: 100-continue\r\n", matchBody) + get,
		"PUT /v1/match HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\nhello" + get,
		"POST /v1/match HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n" + get,
		"POST /v1/match HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n{}",
		"POST /v1/match HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nshort",
		"POST /v1/match HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}x",
		"POST /v1/match HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"POST /v1/match HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}" + get,
		"GET /v1/match HTTP/1.0\r\nConnection: keep-alive\r\n\r\n" + get,
		"HEAD /v1/match HTTP/1.1\r\nHost: x\r\n\r\n" + get,
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"GET /v1/match HTTP/1.1\r\nX-Fold: a\r\n b\r\n\r\n",
		"GET /v1/match HTTP/1.1\r\nX Bad: 1\r\n\r\n",
		"GET /other HTTP/1.1\r\n\r\n", "GET http://h/v1/nope?q=1 HTTP/1.1\r\n\r\n",
		"\r\n\r\n" + get, "", "\x00", "GET", "GET / HTTP/9.9\r\n\r\n",
	} {
		f.Add([]byte(s), true)
		f.Add([]byte(s), false)
	}
	log.SetOutput(io.Discard)
	s := newServe(f, serve.Config{})
	// The data plane answers the same request the same way every time; the
	// control plane reports counters and clocks, so it is kept out.
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			http.Error(w, "elsewhere", http.StatusNotFound)
			return
		}
		s.Handler().ServeHTTP(w, r)
	})
	const window = 60 * time.Millisecond
	_, addr := startWire(f, h, window)

	f.Fuzz(func(t *testing.T, data []byte, thenClose bool) {
		if len(data) > 32<<10 {
			t.Skip()
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(data); err != nil {
			return // the loop had seen enough and closed
		}
		if thenClose {
			c.(*net.TCPConn).CloseWrite()
		}
		// Left open, the connection lasts one window at most, plus the
		// half-closed wait of a reply over unread input.
		c.SetReadDeadline(time.Now().Add(window + 2*time.Second))
		got, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("the connection outlived its window: %v (got %q)", err, got)
		}
		if !thenClose {
			return // a cut-off body times out here and ends there: no oracle
		}

		// The oracle: the same bytes, request by request, through the handler.
		type answer struct {
			status int
			body   string
			head   bool
		}
		var want []answer
		exact := true // false once the loop may, but need not, have stopped
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				break
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			want = append(want, answer{rec.Code, rec.Body.String(), req.Method == http.MethodHead})
			if req.Close {
				break
			}
			if req.Header.Get("Expect") != "" {
				exact = false // whether it reads on depends on whether the handler read
			}
			if _, err := io.Copy(io.Discard, req.Body); err != nil {
				break
			}
		}
		var have []answer
		rr := bufio.NewReader(bytes.NewReader(got))
		for i := 0; ; i++ {
			method := http.MethodGet
			if i < len(want) && want[i].head {
				method = http.MethodHead
			}
			resp, err := http.ReadResponse(rr, &http.Request{Method: method})
			if err != nil {
				break
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("reply %d is cut short: %v (%q)", i, err, got)
			}
			if resp.StatusCode == http.StatusContinue {
				i--
				continue
			}
			have = append(have, answer{resp.StatusCode, string(body), method == http.MethodHead})
		}
		if len(have) > len(want)+1 || (exact && len(have) < len(want)) {
			t.Fatalf("%d replies to %d requests:\nsent %q\n got %q", len(have), len(want), data, got)
		}
		for i := range min(len(have), len(want)) {
			w := want[i]
			if w.head {
				w.body = ""
			}
			if have[i] != w {
				t.Fatalf("reply %d is %+v, the handler gives %+v\nsent %q", i, have[i], w, data)
			}
		}
		if len(have) == len(want)+1 {
			if last := have[len(want)].status; last != http.StatusBadRequest && last != http.StatusRequestHeaderFieldsTooLarge {
				t.Fatalf("an extra %d reply\nsent %q\n got %q", last, data, got)
			}
		}
	})
}
