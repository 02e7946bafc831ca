package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/textproto"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"adwars/internal/chassis"
	"adwars/internal/wire"
)

// The gateway's backend leg. One exchange is one HTTP/1.1 request written
// and one reply read on a keep-alive connection, all of it by the goroutine
// that runs the attempt chain, the one serving the client: the request is rendered into the connection's own buffer and
// leaves in one Write, and net/http's ReadResponse parses the reply
// straight off the connection's reader.
// Framing the reply (Content-Length, chunked, Connection: close, 204/304)
// stays the standard library's problem; framing the request is ours, which
// is why every byte that goes out is either rendered here or validated
// first (outbound.render).

const (
	// maxIdleConns is how many idle connections one backend keeps (what
	// MaxIdleConnsPerHost was on the http.Transport this replaces).
	maxIdleConns = 64
	// maxCoalesce is the largest request sent as one Write from the
	// connection's buffer; a larger body goes out in a Write of its own,
	// so no connection holds on to a body-sized buffer.
	maxCoalesce = 64 << 10
	// maxPooledBuf is the largest buffer handed back to bufPool.
	maxPooledBuf = 1 << 20
)

// aLongTimeAgo is a deadline that has always passed: setting it makes
// blocked and future I/O on a connection fail at once.
var aLongTimeAgo = time.Unix(1, 0)

// buffer is a pooled byte slice (a pointer type, so Put does not allocate).
type buffer struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return new(buffer) }}

func getBuffer() *buffer { return bufPool.Get().(*buffer) }

func putBuffer(buf *buffer) {
	if buf != nil && cap(buf.b) <= maxPooledBuf {
		buf.b = buf.b[:0]
		bufPool.Put(buf)
	}
}

// ---- the request ----

// hopByHop reports whether the canonical header key k describes one
// connection rather than the message, and so is never copied across the
// gateway in either direction. Content-Length is here because each side
// frames its own message: outbound we compute it, inbound net/http does.
func hopByHop(k string) bool {
	switch k {
	case "Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer",
		"Transfer-Encoding", "Upgrade", "Content-Length":
		return true
	}
	return false
}

// outbound is one client request made ready for the backend leg: body
// buffered, end-to-end headers validated and rendered once, to be sent as
// many times as the attempt chains need.
type outbound struct {
	r   *http.Request // the client's request: its Method is sent, and read by ReadResponse
	uri string
	// head is the rendered end-to-end header lines, then Content-Length
	// and the blank line that ends the request head.
	head []byte
	body []byte
}

var outboundPool = sync.Pool{New: func() any { return new(outbound) }}

func getOutbound() *outbound { return outboundPool.Get().(*outbound) }

func putOutbound(o *outbound) {
	if cap(o.body) > maxPooledBuf {
		o.body = nil
	}
	*o = outbound{head: o.head[:0], body: o.body[:0]}
	outboundPool.Put(o)
}

// render validates everything of r that will be written on a backend
// connection and renders the header block. An error means the request is
// refused with a 400: nothing of it ever reaches a backend.
func (o *outbound) render(r *http.Request) error {
	o.r, o.uri = r, r.URL.RequestURI()
	if !wire.ValidToken(r.Method) {
		return fmt.Errorf("invalid method %q", r.Method)
	}
	if !validRequestURI(o.uri) {
		return fmt.Errorf("invalid request target %q", o.uri)
	}
	h := o.head[:0]
	for k, vs := range r.Header {
		k = textproto.CanonicalMIMEHeaderKey(k)
		switch {
		case hopByHop(k), k == "Host":
			// Ours to write.
		case k == "Expect":
			// The body is already buffered: a forwarded "100-continue" would
			// only make the replica emit a 1xx nobody is waiting for.
		case !wire.ValidToken(k):
			return fmt.Errorf("invalid header name %q", k)
		default:
			for _, v := range vs {
				if !wire.ValidFieldValue(v) {
					return fmt.Errorf("invalid %s header value %q", k, v)
				}
				h = append(h, k...)
				h = append(h, ": "...)
				h = append(h, v...)
				h = append(h, "\r\n"...)
			}
		}
	}
	h = append(h, "Content-Length: "...)
	h = strconv.AppendInt(h, int64(len(o.body)), 10)
	o.head = append(h, "\r\n\r\n"...)
	return nil
}

// validRequestURI admits no control byte and no space: either would end
// the request line early.
func validRequestURI(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c == 0x7f {
			return false
		}
	}
	return s != ""
}

// ---- the connection ----

// backendConn is one keep-alive connection to a replica with the reader
// and write buffer that live as long as it does.
type backendConn struct {
	net.Conn
	br   *bufio.Reader
	wbuf []byte
}

// abort fails the connection's blocked and future I/O at once; it is what
// cancellation (client gone) does to an exchange in flight.
func (c *backendConn) abort() { c.SetDeadline(aLongTimeAgo) }

// splitBackendURL reads a backend base URL as the wire needs it: the Host
// header, the address to dial, and a path prefix for the request line. The
// backend leg is plain HTTP/1.1.
func splitBackendURL(base string) (host, addr, prefix string, err error) {
	u, err := url.Parse(base)
	if err != nil {
		return "", "", "", err
	}
	if u.Scheme != "http" || u.Host == "" || u.User != nil || u.RawQuery != "" || u.Fragment != "" {
		return "", "", "", fmt.Errorf("backend %q: want http://host[:port][/prefix]", base)
	}
	addr = u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return u.Host, addr, u.EscapedPath(), nil
}

// getIdle pops the most recently used idle connection, nil if none.
func (b *Backend) getIdle() *backendConn {
	b.idleMu.Lock()
	defer b.idleMu.Unlock()
	n := len(b.idle)
	if n == 0 {
		return nil
	}
	c := b.idle[n-1]
	b.idle[n-1] = nil
	b.idle = b.idle[:n-1]
	return c
}

// putIdle keeps c for the next exchange, or closes it when the pool is full.
func (b *Backend) putIdle(c *backendConn) {
	b.idleMu.Lock()
	if len(b.idle) < maxIdleConns {
		b.idle = append(b.idle, c)
		c = nil
	}
	b.idleMu.Unlock()
	if c != nil {
		c.Close()
	}
}

// closeIdle closes every idle connection (drain).
func (b *Backend) closeIdle() {
	b.idleMu.Lock()
	idle := b.idle
	b.idle = nil
	b.idleMu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// closeIdle closes every backend's idle connections; connections in use
// are closed or pooled again by the exchange that holds them.
func (p *Pool) closeIdle() {
	for _, b := range p.backends {
		b.closeIdle()
	}
}

func (b *Backend) idleConns() int {
	b.idleMu.Lock()
	defer b.idleMu.Unlock()
	return len(b.idle)
}

func (b *Backend) dial(ctx context.Context, deadline time.Time) (*backendConn, error) {
	b.dials.Add(1)
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", b.addr)
	if err != nil {
		return nil, err
	}
	return &backendConn{Conn: nc, br: bufio.NewReader(nc)}, nil
}

// ---- the exchange ----

// reply is a backend's answer, fully read: the body lives in the buffer the
// caller lent to exchange.
type reply struct {
	status int
	header http.Header
}

// exchange sends o to b and reads the whole reply, body into body.b, within
// perTryTimeout or ctx's deadline, whichever is first; cancelling ctx aborts
// it mid-flight.
//
// The one stale keep-alive rule: a reused connection that fails on the
// write, or ends before the reply's first byte, was most likely closed by
// the replica while it sat idle (restart, idle timeout), which says nothing
// about the replica now. It is replaced by a fresh connection, once, and
// the request resent — safe because every /v1 endpoint is an idempotent
// pure function. Every other failure is the backend's and is returned.
func (b *Backend) exchange(ctx context.Context, o *outbound, body *buffer) (reply, error) {
	deadline := time.Now().Add(perTryTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	c := b.getIdle()
	reused := c != nil
	for {
		if c == nil {
			var err error
			if c, err = b.dial(ctx, deadline); err != nil {
				return reply{}, err
			}
		}
		c.SetDeadline(deadline)
		stop := context.AfterFunc(ctx, c.abort)
		var rep reply
		keep := false
		err := c.send(b, o)
		stale := err != nil && reused && !errors.Is(err, os.ErrDeadlineExceeded)
		if err == nil {
			rep, keep, err = c.receive(o, body)
		}
		// A cancel that fired may still be on its way to abort: the
		// connection is poisoned whatever the exchange made of it.
		if stop() && keep {
			b.putIdle(c)
		} else {
			c.Close()
		}
		switch {
		case err == nil:
			return rep, nil
		case ctx.Err() != nil:
			return reply{}, ctx.Err()
		case !stale:
			return reply{}, err
		}
		b.staleRedials.Add(1)
		c, reused = nil, false
	}
}

// send renders the request into c's buffer, writes it and waits for the
// first byte of the reply.
func (c *backendConn) send(b *Backend, o *outbound) error {
	w := append(c.wbuf[:0], o.r.Method...)
	w = append(w, ' ')
	w = append(w, b.prefix...)
	w = append(w, o.uri...)
	w = append(w, " HTTP/1.1\r\nHost: "...)
	w = append(w, b.host...)
	w = append(w, "\r\n"...)
	w = append(w, o.head...)
	var err error
	if len(w)+len(o.body) <= maxCoalesce {
		w = append(w, o.body...)
		_, err = c.Write(w)
	} else if _, err = c.Write(w); err == nil {
		_, err = c.Write(o.body)
	}
	c.wbuf = w[:0]
	if err == nil {
		_, err = c.br.Peek(1)
	}
	return err
}

// receive reads one whole reply off c. keep reports that c is fit for
// another exchange: the reply was well-formed, did not ask for the
// connection to close and left nothing unread behind it.
func (c *backendConn) receive(o *outbound, body *buffer) (rep reply, keep bool, err error) {
	resp, err := http.ReadResponse(c.br, o.r)
	if err != nil {
		return reply{}, false, err
	}
	if resp.StatusCode < 200 {
		// Nothing we send asks for a 1xx, and a status below 100 is no
		// status at all.
		return reply{}, false, fmt.Errorf("unexpected %q reply", resp.Status)
	}
	if body.b, err = chassis.ReadAll(body.b[:0], resp.Body, resp.ContentLength, math.MaxInt64); err != nil {
		return reply{}, false, fmt.Errorf("reading reply body: %w", err)
	}
	return reply{resp.StatusCode, resp.Header}, !resp.Close && c.br.Buffered() == 0, nil
}
