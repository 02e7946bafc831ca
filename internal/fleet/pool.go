package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adwars/internal/chassis"
)

// Backend is one serve replica behind the gateway: its base URL, the
// availability verdicts (active health bit + passive circuit breaker),
// and its traffic counters.
type Backend struct {
	// URL is the replica base URL, e.g. "http://127.0.0.1:8081".
	URL string

	// id is the replica's self-reported identity (X-Adwars-Replica /
	// healthz "replica" field), learned from the first health check or
	// proxied response; falls back to the URL until known.
	id atomic.Value // string

	// healthy is the active checker's last verdict. Backends start
	// healthy so a gateway serves immediately after boot; the first
	// health pass corrects any optimism within one interval.
	healthy atomic.Bool

	br *chassis.Breaker

	// budget bounds the extra attempts (retries) the gateway
	// may aim at this backend; refilled by successes.
	budget retryBudget

	requests  atomic.Uint64 // proxied requests sent to this backend
	failures  atomic.Uint64 // transport errors + replica 5xx
	ejections atomic.Uint64 // circuit-breaker trips
	unready   atomic.Uint64 // active health checks that came back not-ready

	// The proxy path's own wire to this backend (wire.go): what of URL goes
	// into a request (set once by NewGateway), and the LIFO pool of idle
	// keep-alive connections with its counters.
	host, addr, prefix string
	idleMu             sync.Mutex
	idle               []*backendConn
	dials              atomic.Uint64 // connections opened
	staleRedials       atomic.Uint64 // exchanges resent after a dead keep-alive connection
}

// failThreshold is the consecutive-failure count that ejects a backend.
const failThreshold = 3

func newBackend(url string) *Backend {
	b := &Backend{
		URL: url,
		// Driven by real proxied traffic (the active health poller flips a
		// separate availability bit): an ejected backend sits out a second,
		// then one probe request re-admits it or ejects it afresh.
		br:     chassis.NewBreaker(failThreshold, time.Second, time.Now),
		budget: retryBudget{tenths: budgetTenths},
	}
	b.healthy.Store(true)
	return b
}

// ID returns the replica identity if learned, else the base URL.
func (b *Backend) ID() string {
	if v, ok := b.id.Load().(string); ok && v != "" {
		return v
	}
	return b.URL
}

// learnID records the replica's identity. Every proxied reply names it, so
// the store — an allocation and a write to a shared cache line — happens
// only when the name has changed: once per replica lifetime.
func (b *Backend) learnID(id string) {
	if id == "" {
		return
	}
	if known, _ := b.id.Load().(string); known != id {
		b.id.Store(id)
	}
}

// fail records a failed exchange on this backend.
func (b *Backend) fail() {
	b.failures.Add(1)
	if b.br.Failure() {
		b.ejections.Add(1)
	}
}

// healthInterval is the active /readyz polling cadence; it also bounds one
// health probe.
const healthInterval = 250 * time.Millisecond

// Pool is the gateway's set of replica backends with round-robin
// selection over the currently available ones.
type Pool struct {
	backends []*Backend
	rr       atomic.Uint64
	client   *http.Client
}

// newPool builds a pool over the given base URLs (scheme-less entries get
// "http://"). All backends start available; the health loop (HealthLoop)
// and passive failure detection take it from there.
func newPool(urls []string) *Pool {
	p := &Pool{client: &http.Client{Timeout: healthInterval}}
	for _, u := range urls {
		if u = normalizeURL(u); u != "" {
			p.backends = append(p.backends, newBackend(u))
		}
	}
	return p
}

// Backends returns the pool members (fixed after construction).
func (p *Pool) Backends() []*Backend { return p.backends }

// pick returns the next backend that is healthy, not circuit-ejected,
// and not in tried — or, when every backend looks down (health checker
// lagging reality, e.g. right after a mass restart), any breaker-allowed
// backend, so the gateway degrades to trying rather than refusing.
// Returns nil when nothing is willing to take traffic.
func (p *Pool) pick(tried *triedSet) *Backend {
	n := len(p.backends)
	if n == 0 {
		return nil
	}
	start := int(p.rr.Add(1))
	for i := 0; i < n; i++ {
		b := p.backends[(start+i)%n]
		if tried.has(b) || !b.healthy.Load() {
			continue
		}
		if b.br.Allow() {
			return b
		}
	}
	for i := 0; i < n; i++ {
		b := p.backends[(start+i)%n]
		if tried.has(b) {
			continue
		}
		if b.br.Allow() {
			return b
		}
	}
	return nil
}

// HealthLoop polls every backend's /readyz every healthInterval until ctx
// is cancelled. A 200 marks the backend healthy and teaches the
// pool its replica ID; anything else (including a draining replica's 503)
// marks it unhealthy so pick routes around it before connections fail.
func (p *Pool) HealthLoop(ctx context.Context) {
	ticker := time.NewTicker(healthInterval)
	defer ticker.Stop()
	p.checkAll(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			p.checkAll(ctx)
		}
	}
}

func (p *Pool) checkAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range p.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			p.checkOne(ctx, b)
		}(b)
	}
	wg.Wait()
}

func (p *Pool) checkOne(ctx context.Context, b *Backend) {
	ctx, cancel := context.WithTimeout(ctx, healthInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/readyz", nil)
	if err != nil {
		b.healthy.Store(false)
		b.unready.Add(1)
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		b.healthy.Store(false)
		b.unready.Add(1)
		return
	}
	defer resp.Body.Close()
	var h struct {
		Replica string `json:"replica"`
	}
	if json.NewDecoder(resp.Body).Decode(&h) == nil {
		b.learnID(h.Replica)
	}
	if resp.StatusCode != http.StatusOK {
		b.healthy.Store(false)
		b.unready.Add(1)
		return
	}
	b.healthy.Store(true)
}
