// Package wire is the server half of the HTTP/1.x wire: the one serving
// loop under serve.Server.Serve and fleet.Gateway.Serve. It has the shape of
// the two net/http calls it replaces — Serve(ln) and Shutdown(ctx) over an
// http.Handler, and Run, the life both servers lead around them — and keeps
// one piece of the standard library: every request is parsed by
// http.ReadRequest, so request framing, chunked bodies and the
// smuggling defences (Content-Length against Transfer-Encoding, duplicate
// lengths) stay net/http's problem. Framing the reply is ours.
//
// One goroutine serves a connection from accept to close: it waits for a
// request, parses it, runs the handler on itself against a ResponseWriter
// that lives as long as the connection (header map, head and body buffers
// reused), and sends the whole reply — status line, the handler's headers,
// Date, Connection, Content-Length, body — in one Write. There is no
// background reader, no per-request context and no per-request timer.
//
// Honoured, because the two handler trees and their clients rely on it:
// keep-alive and "Connection: close" in either direction, HTTP/1.0 (closed
// unless it asks for keep-alive), pipelined requests, "Expect:
// 100-continue", HEAD, a 1 MiB cap on a request head (431 and close), 400
// and close on a head that does not parse, a bounded drain of a body the
// handler left unread (past the bound the connection closes), a handler
// panic closing its connection only, and the drain contract of Shutdown.
//
// Dropped, each named because a handler written against net/http could have
// used it: a client that hangs up does not cancel r.Context(), which is
// context.Background() (serve bounds a request by its queue timeout, the
// gateway by its per-try timeout); no Content-Type sniffing (a handler that
// sets none sends none); no streaming — no Flush, no chunked replies, a
// reply is buffered whole and framed by Content-Length; no 1xx from a
// handler; no handing the connection over to the handler (one that wants
// its connection gone panics http.ErrAbortHandler); no trailers; no HTTP/2;
// no ConnState, no per-request deadlines beyond the connection's one coarse
// read deadline (readWindow).
package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// maxHeaderBytes caps one request head (what http.Server's
	// DefaultMaxHeaderBytes is); past it the reply is 431.
	maxHeaderBytes = 1 << 20
	// maxDrain is how much of a body its handler left unread is read and
	// discarded to keep the connection; with more outstanding it closes.
	maxDrain = 256 << 10
	// readWindow is the one read deadline a connection carries: it covers
	// waiting for the next request and reading it, body included. It is
	// re-armed only once half of it has passed, so a busy connection sets
	// a deadline once a minute and an idle or stalled one is dropped after
	// one to two minutes.
	readWindow = 2 * time.Minute
	// maxCoalesce is the largest reply sent as one Write from the
	// connection's buffer; a larger body goes out in a Write of its own.
	maxCoalesce = 64 << 10
	// maxRetain is the largest reply buffer a connection keeps between
	// requests.
	maxRetain = 64 << 10

	// rstAvoidance is how long a connection closed over unread input stays
	// half-closed first (see linger); net/http waits as long.
	rstAvoidance = 500 * time.Millisecond

	readBufSize = 4 << 10
)

// Server serves Handler on the connections of one listener.
type Server struct {
	Handler http.Handler

	// window is readWindow, unless a test shortened it.
	window time.Duration

	draining atomic.Bool // set by Shutdown, read once per request

	mu    sync.Mutex
	ln    net.Listener
	conns map[*conn]struct{}
	// drained is made by the first Shutdown and closed once no connection
	// is left.
	drained chan struct{}
}

// Serve accepts connections on ln and serves each on its own goroutine. It
// returns http.ErrServerClosed after Shutdown, else the listener's error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	s.ln = ln
	if s.window == 0 {
		s.window = readWindow
	}
	s.mu.Unlock()
	var delay time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return http.ErrServerClosed
			}
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				// Out of descriptors, most likely: those in use will be
				// released, so wait rather than stop serving.
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				log.Printf("wire: accept: %v; retrying in %v", err, delay)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		c := &conn{srv: s, rwc: rwc, remote: rwc.RemoteAddr().String()}
		c.r = connReader{rwc: rwc, remain: math.MaxInt64}
		c.br = bufio.NewReaderSize(&c.r, readBufSize)
		c.w = response{c: c, header: make(http.Header, 8)}
		if !s.track(c) {
			rwc.Close()
			return http.ErrServerClosed
		}
		go c.serve()
	}
}

// track registers c, unless the server is draining.
func (s *Server) track(c *conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[*conn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
	if s.drained != nil && len(s.conns) == 0 {
		close(s.drained)
	}
}

// Shutdown stops the server without cutting off a reply: the listener
// closes, connections waiting for a request are closed at once, and each
// connection with a request in flight finishes that reply, marks it
// "Connection: close" and closes. Shutdown returns once every connection's
// goroutine has exited, or, when ctx ends first, closes what is left and
// returns ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining.Store(true)
	first := s.drained == nil
	if first {
		s.drained = make(chan struct{})
		if len(s.conns) == 0 {
			close(s.drained)
		}
	}
	var err error
	if first && s.ln != nil {
		err = s.ln.Close()
	}
	for c := range s.conns {
		if c.state.CompareAndSwap(stateIdle, stateClosing) {
			c.rwc.Close()
		}
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
		return err
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.rwc.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// Run serves ln until ctx is cancelled, lets announce (if any) tell the world
// while the listener is still open — a replica flips its readiness and waits
// for its gateways to look — then shuts down within drain. A listener that
// fails first ends the run with its error; either way the caller's own
// teardown (flush, close) follows.
func (s *Server) Run(ctx context.Context, ln net.Listener, drain time.Duration, announce func()) error {
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if announce != nil {
		announce()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	return nil
}

// A connection is idle while it waits for the first byte of a request and
// active from then until the reply has left. Shutdown closes idle
// connections itself; whoever wins the compare-and-swap out of idle owns
// the next step, so a request is either served whole or never started.
const (
	stateActive int32 = iota
	stateIdle
	stateClosing
)

// conn is one client connection and everything reused from one of its
// requests to the next.
type conn struct {
	srv    *Server
	rwc    net.Conn
	remote string
	r      connReader
	br     *bufio.Reader
	state  atomic.Int32
	// armed is when the read deadline was last set.
	armed time.Time
	// date is the Date header line for second dateSec.
	dateSec int64
	date    []byte
	w       response
	cont    continueBody
	scratch [2 << 10]byte // where a drained body goes
}

// connReader is the connection as the bufio.Reader sees it: reads count
// against remain, which is how a request head is capped. At zero it reports
// EOF, which fails the parse; the loop then finds remain spent and answers
// 431.
type connReader struct {
	rwc    net.Conn
	remain int64
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	n, err := r.rwc.Read(p)
	r.remain -= int64(n)
	return n, err
}

// continueBody is the body of a request that sent "Expect: 100-continue":
// the interim reply goes out when the handler first reads, and not at all
// if it never does.
type continueBody struct {
	io.ReadCloser
	c    *conn
	sent bool
}

func (b *continueBody) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		if _, err := io.WriteString(b.c.rwc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			return 0, err
		}
	}
	return b.ReadCloser.Read(p)
}

func (c *conn) serve() {
	defer func() {
		if v := recover(); v != nil {
			// A handler panic costs its own connection, as under net/http;
			// http.ErrAbortHandler asks for exactly that, silently.
			if err, ok := v.(error); !ok || !errors.Is(err, http.ErrAbortHandler) {
				log.Printf("wire: panic serving %s: %v\n%s", c.remote, v, debug.Stack())
			}
		}
		c.rwc.Close()
		c.srv.untrack(c)
	}()
	now := time.Now()
	for {
		if now.Sub(c.armed) > c.srv.window/2 {
			c.armed = now
			c.rwc.SetReadDeadline(now.Add(c.srv.window))
		}
		c.state.Store(stateIdle)
		if c.srv.draining.Load() {
			return // Shutdown may have looked before this connection went idle
		}
		if _, err := c.br.Peek(1); err != nil {
			return // closed, reset, idle past the deadline, or kicked by Shutdown
		}
		if !c.state.CompareAndSwap(stateIdle, stateActive) {
			return
		}
		c.r.remain = maxHeaderBytes + readBufSize
		req, err := http.ReadRequest(c.br)
		if err != nil {
			c.refuse(err)
			return
		}
		c.r.remain = math.MaxInt64
		req.RemoteAddr = c.remote

		expects := req.ContentLength != 0 && req.ProtoAtLeast(1, 1) && expectsContinue(req.Header)
		if expects {
			c.cont = continueBody{ReadCloser: req.Body, c: c}
			req.Body = &c.cont
		}
		body := req.Body // a handler may put another in its place
		w := &c.w
		w.reset(req)
		c.srv.Handler.ServeHTTP(w, req)
		if !w.wroteHeader {
			w.WriteHeader(http.StatusOK)
		}
		closeAfter := req.Close || w.closeAfter
		unread := false
		switch {
		case closeAfter:
		case expects && !c.cont.sent:
			// The client is still waiting for the go-ahead to send its body,
			// or has given up waiting and is sending it: nothing says which.
			closeAfter, unread = true, true
		case !c.drain(body):
			closeAfter, unread = true, true
		}
		closeAfter = closeAfter || c.srv.draining.Load()
		now = time.Now()
		if err := w.finish(now, closeAfter); err != nil {
			return
		}
		if unread {
			c.linger()
		}
		if closeAfter {
			return
		}
	}
}

// linger ends a reply that leaves request bytes unread. Closing a socket
// with input pending resets it, and the reset can overtake the reply just
// written; so only the sending half closes — the peer sees the reply end at
// once — and the full close waits for the peer to have read it.
func (c *conn) linger() {
	if hc, ok := c.rwc.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
		time.Sleep(rstAvoidance)
	}
}

func expectsContinue(h http.Header) bool {
	vs := h["Expect"]
	return len(vs) > 0 && strings.EqualFold(vs[0], "100-continue")
}

// drain reads what the handler left of body, up to maxDrain, and reports
// whether it reached the end: only then does the next request start where
// the reader stands. A drained body is closed, so that a read from a
// goroutine its handler left behind fails instead of eating the next request.
func (c *conn) drain(body io.ReadCloser) bool {
	for n := 0; n <= maxDrain; {
		m, err := body.Read(c.scratch[:])
		n += m
		if err == io.EOF {
			body.Close()
			return true
		}
		if err != nil {
			return false
		}
	}
	return false
}

// refuse ends a connection whose next request could not be parsed. A peer
// that went away or went quiet gets nothing; bytes that are not a request
// get a reply that says so.
func (c *conn) refuse(err error) {
	var ne net.Error
	switch {
	case c.r.remain <= 0:
		io.WriteString(c.rwc, "HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n431 Request Header Fields Too Large")
		c.linger()
	case err == io.EOF, err == io.ErrUnexpectedEOF, errors.As(err, &ne):
	default:
		io.WriteString(c.rwc, "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n400 Bad Request")
	}
}

// response is the connection's http.ResponseWriter. WriteHeader renders the
// status line and the handler's headers into head, as they stand at that
// moment; Write collects the body; finish adds what frames the reply and
// sends it.
type response struct {
	c           *conn
	req         *http.Request
	header      http.Header
	status      int
	wroteHeader bool
	closeAfter  bool // the handler set "Connection: close"
	sawDate     bool // the handler set Date
	head        []byte
	body        []byte
}

func (w *response) reset(req *http.Request) {
	clear(w.header)
	w.req = req
	w.status = 0
	w.wroteHeader, w.closeAfter, w.sawDate = false, false, false
	if cap(w.head) > maxRetain {
		w.head = nil
	}
	if cap(w.body) > maxRetain {
		w.body = nil
	}
	w.head, w.body = w.head[:0], w.body[:0]
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(status int) {
	if w.wroteHeader {
		return
	}
	if status < 100 || status > 999 {
		panic("wire: invalid WriteHeader code " + strconv.Itoa(status))
	}
	if status < 200 {
		return // no interim replies from handlers
	}
	w.wroteHeader = true
	w.status = status
	b := append(w.head, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(status)...)
	b = append(b, "\r\n"...)
	for k, vs := range w.header {
		switch k {
		case "Content-Length", "Transfer-Encoding":
			continue // the reply is framed here
		case "Connection":
			for _, v := range vs {
				if strings.EqualFold(v, "close") {
					w.closeAfter = true
				}
			}
			continue
		case "Date":
			w.sawDate = true
		}
		if !ValidToken(k) {
			continue
		}
		for _, v := range vs {
			if !ValidFieldValue(v) {
				continue // it could end the header block early
			}
			b = append(b, k...)
			b = append(b, ": "...)
			b = append(b, v...)
			b = append(b, "\r\n"...)
		}
	}
	w.head = b
}

func (w *response) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

func bodyAllowed(status int) bool {
	return status != http.StatusNoContent && status != http.StatusNotModified
}

// finish frames and sends the reply.
func (w *response) finish(now time.Time, closeAfter bool) error {
	c := w.c
	b := w.head
	if !w.sawDate {
		if sec := now.Unix(); sec != c.dateSec {
			c.dateSec = sec
			c.date = now.UTC().AppendFormat(append(c.date[:0], "Date: "...), http.TimeFormat)
			c.date = append(c.date, "\r\n"...)
		}
		b = append(b, c.date...)
	}
	switch {
	case closeAfter:
		b = append(b, "Connection: close\r\n"...)
	case !w.req.ProtoAtLeast(1, 1):
		b = append(b, "Connection: keep-alive\r\n"...)
	}
	body := w.body
	if bodyAllowed(w.status) {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	if w.req.Method == http.MethodHead {
		body = nil
	}
	var err error
	if len(b)+len(body) <= maxCoalesce {
		b = append(b, body...)
		_, err = c.rwc.Write(b)
	} else if _, err = c.rwc.Write(b); err == nil {
		_, err = c.rwc.Write(body)
	}
	w.head = b[:0]
	w.req = nil
	return err
}

// isTokenByte is RFC 7230's tchar.
var isTokenByte = func() (t [256]bool) {
	for c := '0'; c <= '9'; c++ {
		t[c] = true
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = true, true
	}
	for _, c := range "!#$%&'*+-.^_`|~" {
		t[c] = true
	}
	return t
}()

// ValidToken reports whether s can be written as a method or a header name.
func ValidToken(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isTokenByte[s[i]] {
			return false
		}
	}
	return s != ""
}

// ValidFieldValue admits what RFC 7230 admits in a field value: no control
// byte but HTAB, so no CR, LF or NUL.
func ValidFieldValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < ' ' && c != '\t') || c == 0x7f {
			return false
		}
	}
	return true
}
