package serve

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// ChaosConfig parameterizes the deterministic fault-injection middleware.
// All rates are per-request probabilities in [0,1]; the zero value means
// no injection. Faults target only the data plane (/v1/*) so the control
// plane (/healthz, /admin/reload, /debug/vars) stays dependable for
// operators and harnesses even mid-chaos.
type ChaosConfig struct {
	// Seed drives the injection PRNG; the same seed over the same request
	// sequence injects the same faults.
	Seed int64
	// LatencyRate is the probability of sleeping Latency inside the
	// handler while holding an admission slot — injected latency therefore
	// consumes real serving capacity and, at rate×Latency high enough,
	// pushes the server into genuine load shedding.
	LatencyRate float64
	// Latency is the injected delay (0 = 5ms).
	Latency time.Duration
	// CloseRate is the probability of closing the connection before any
	// response bytes — the client sees a mid-exchange connection drop.
	CloseRate float64
	// TruncateRate is the probability of truncating the request body read
	// mid-stream, simulating a client (or proxy) that died while sending.
	TruncateRate float64
	// PanicRate is the probability of panicking inside request handling,
	// exercising the recovery boundary end to end.
	PanicRate float64
}

// Enabled reports whether any fault class is configured.
func (c *ChaosConfig) Enabled() bool {
	return c != nil && (c.LatencyRate > 0 || c.CloseRate > 0 || c.TruncateRate > 0 || c.PanicRate > 0)
}

func (c *ChaosConfig) latency() time.Duration {
	if c.Latency > 0 {
		return c.Latency
	}
	return 5 * time.Millisecond
}

// chaosAction is the exclusive fault drawn for one request (latency is a
// separate, composable draw taken later, inside admission).
type chaosAction int

const (
	chaosNone chaosAction = iota
	chaosClose
	chaosTruncate
	chaosPanic
)

// chaosState is the live injection engine: the config plus the seeded,
// mutex-guarded PRNG both the middleware (transport faults) and the
// admitted handler path (latency faults) draw from.
type chaosState struct {
	cfg *ChaosConfig
	mu  sync.Mutex
	rng *rand.Rand
}

func newChaosState(cc *ChaosConfig) *chaosState {
	return &chaosState{cfg: cc, rng: rand.New(rand.NewSource(cc.Seed))}
}

// drawAction picks the exclusive transport fault for one request.
func (cs *chaosState) drawAction() chaosAction {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	switch u := cs.rng.Float64(); {
	case u < cs.cfg.CloseRate:
		return chaosClose
	case u < cs.cfg.CloseRate+cs.cfg.TruncateRate:
		return chaosTruncate
	case u < cs.cfg.CloseRate+cs.cfg.TruncateRate+cs.cfg.PanicRate:
		return chaosPanic
	}
	return chaosNone
}

// drawLatency decides whether this request gets injected latency and how
// much. Called from inside admission so the sleep occupies a worker slot.
func (cs *chaosState) drawLatency() (time.Duration, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.rng.Float64() < cs.cfg.LatencyRate {
		return cs.cfg.latency(), true
	}
	return 0, false
}

// withChaos wraps next in seeded transport-fault injection. It sits inside
// the recovery boundary, so injected panics are recovered and counted like
// real ones, and outside the handlers, so truncated bodies and closed
// connections hit the same code paths a misbehaving network produces.
// (Latency faults are injected separately, inside admission — see
// Server.admitted — so they burn real capacity.)
func (s *Server) withChaos(next http.Handler) http.Handler {
	cc := s.chaos.cfg
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		switch s.chaos.drawAction() {
		case chaosClose:
			s.met.Chaos.CloseInjections.Add(1)
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			// No hijack support: abort the connection the sanctioned way.
			panic(http.ErrAbortHandler)
		case chaosTruncate:
			s.met.Chaos.TruncateInjections.Add(1)
			r.Body = &truncatedBody{inner: r.Body, remaining: 3}
		case chaosPanic:
			s.met.Chaos.PanicInjections.Add(1)
			panic(fmt.Sprintf("chaos: injected panic (seed %d)", cc.Seed))
		}
		next.ServeHTTP(w, r)
	})
}

// truncatedBody yields a few bytes of the real body and then fails the
// read mid-stream, exactly like a peer that vanished while sending.
type truncatedBody struct {
	inner     io.ReadCloser
	remaining int
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	if t.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > t.remaining {
		p = p[:t.remaining]
	}
	n, err := t.inner.Read(p)
	t.remaining -= n
	if err == io.EOF {
		// The real body ended before the cut: pass the EOF through so tiny
		// bodies still parse and the fault only hits bodies long enough to
		// truncate.
		return n, err
	}
	if t.remaining <= 0 {
		return n, io.ErrUnexpectedEOF
	}
	return n, err
}

func (t *truncatedBody) Close() error { return t.inner.Close() }
