package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// GatewayConfig parameterizes a Gateway.
type GatewayConfig struct {
	// Backends are the replica base URLs ("host:port" gets "http://").
	Backends []string
	// Pool tunes availability tracking (health cadence, breaker).
	Pool PoolConfig
	// MaxAttempts bounds how many distinct backends one attempt chain
	// tries before giving up (0 = one try per backend).
	MaxAttempts int
	// HedgeDelay, when >0, fires a second attempt chain against
	// different backends if the first has not answered within the delay;
	// the first success wins. All /v1 endpoints are idempotent pure
	// functions, so hedging is always safe here.
	HedgeDelay time.Duration
	// PerTryTimeout bounds a single backend exchange (0 = 5s).
	PerTryTimeout time.Duration
	// MetricsOut, when non-nil, receives a final metrics snapshot on
	// graceful shutdown.
	MetricsOut io.Writer
}

func (c *GatewayConfig) maxAttempts(pool *Pool) int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return len(pool.Backends())
}

func (c *GatewayConfig) perTryTimeout() time.Duration {
	if c.PerTryTimeout > 0 {
		return c.PerTryTimeout
	}
	return 5 * time.Second
}

const (
	// maxBody bounds a proxied request body; kept above the replicas' own
	// cap so oversized bodies get the replica's 413, not a
	// gateway-invented answer.
	maxBody = 8 << 20
	// drainTimeout bounds graceful shutdown.
	drainTimeout = 5 * time.Second
)

// Gateway load-balances /v1/* traffic across a pool of serve replicas
// with retry, failover, and optional hedging. Create with NewGateway,
// run the health loop, and expose Handler (or use Serve).
type Gateway struct {
	cfg    GatewayConfig
	pool   *Pool
	met    *gatewayMetrics
	client *http.Client
	mux    http.Handler
}

// NewGateway builds a gateway over cfg.Backends.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	pool := NewPool(cfg.Backends, cfg.Pool)
	if len(pool.Backends()) == 0 {
		return nil, errors.New("fleet: gateway needs at least one backend")
	}
	g := &Gateway{
		cfg:  cfg,
		pool: pool,
		met:  &gatewayMetrics{},
		client: &http.Client{
			// Per-try contexts carry the deadline; the client itself must
			// not cut hedged winners short.
			Transport: &http.Transport{MaxIdleConnsPerHost: 64},
		},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", g.handleProxy)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/debug/vars", g.handleDebugVars)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeGatewayError(w, http.StatusNotFound, "not_found", "no such endpoint: %s", r.URL.Path)
	})
	g.mux = mux
	return g, nil
}

// Pool returns the backend pool (for the health loop and metrics).
func (g *Gateway) Pool() *Pool { return g.pool }

// Metrics returns the gateway metrics tree as an expvar-compatible Var.
func (g *Gateway) Metrics() fmt.Stringer { return gatewayVar{met: g.met, pool: g.pool} }

// Handler returns the gateway's HTTP handler tree.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Serve runs the health loop and accepts connections on ln until ctx is
// cancelled, then drains (bounded by drainTimeout) and flushes metrics.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	healthCtx, stopHealth := context.WithCancel(context.Background())
	defer stopHealth()
	go g.pool.HealthLoop(healthCtx)
	hs := &http.Server{Handler: g.mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := hs.Shutdown(drainCtx)
	gatewayVar{met: g.met, pool: g.pool}.flush(g.cfg.MetricsOut)
	if err != nil {
		return fmt.Errorf("fleet: gateway drain incomplete: %w", err)
	}
	return nil
}

// ---- proxy data path ----

// attemptResult is one chain's outcome: a fully buffered backend
// response, or the error that exhausted the chain. Buffering the body
// makes retries and hedging race-free — there is never a half-consumed
// stream to clean up.
type attemptResult struct {
	status  int
	header  http.Header
	body    []byte
	backend *Backend
	hedge   bool
	err     error
}

// triedSet shares the tried-backend set between the primary and hedge
// chains so they never duplicate work on the same replica.
type triedSet struct {
	mu sync.Mutex
	m  map[*Backend]bool
}

func (t *triedSet) pick(p *Pool) *Backend {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := p.pick(t.m)
	if b != nil {
		t.m[b] = true
	}
	return b
}

func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	g.met.requests.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeGatewayError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				"request body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeGatewayError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
		}
		return
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	tried := &triedSet{m: make(map[*Backend]bool)}
	// Buffered to the maximum chain count: a losing chain's send never
	// blocks, so no goroutine outlives the request.
	resc := make(chan attemptResult, 2)
	chains := 1
	go g.attemptChain(ctx, r, body, tried, resc, false)

	var timerC <-chan time.Time
	if g.cfg.HedgeDelay > 0 && len(g.pool.Backends()) > 1 {
		timer := time.NewTimer(g.cfg.HedgeDelay)
		defer timer.Stop()
		timerC = timer.C
	}

	received := 0
	var lastFail attemptResult
	for {
		select {
		case res := <-resc:
			received++
			if res.err == nil {
				if res.hedge {
					g.met.hedgeWins.Add(1)
				}
				g.deliver(w, res)
				return
			}
			lastFail = res
			if received == chains {
				g.met.noBackend.Add(1)
				writeGatewayError(w, http.StatusBadGateway, "no_backend",
					"no replica could answer: %v", lastFail.err)
				return
			}
		case <-timerC:
			timerC = nil
			g.met.hedges.Add(1)
			chains++
			go g.attemptChain(ctx, r, body, tried, resc, true)
		}
	}
}

// attemptChain tries successive backends until one answers (any status
// below 500), the attempt budget is spent, or no backend remains.
// Extra attempts — retries (i > 0) and every attempt of a hedge chain —
// must be paid for out of the target backend's retry budget: when the
// bucket is dry the chain stops instead of amplifying load against a
// fleet that is already failing.
func (g *Gateway) attemptChain(ctx context.Context, r *http.Request, body []byte,
	tried *triedSet, resc chan<- attemptResult, hedge bool) {
	budget := g.cfg.maxAttempts(g.pool)
	lastErr := errors.New("no available backend")
	for i := 0; i < budget; i++ {
		if ctx.Err() != nil {
			resc <- attemptResult{err: ctx.Err(), hedge: hedge}
			return
		}
		b := tried.pick(g.pool)
		if b == nil {
			break
		}
		if i > 0 || hedge {
			if !b.budget.spend() {
				g.met.budgetExhausted.Add(1)
				lastErr = fmt.Errorf("backend %s: retry budget exhausted", b.ID())
				break
			}
		}
		if i > 0 {
			g.met.retries.Add(1)
		}
		res, err := g.forward(ctx, b, r, body)
		if err == nil && res.status < http.StatusInternalServerError {
			// Anything below 500 is the replica's real answer — including
			// 429 shed (backpressure a retry would amplify) and 4xx input
			// rejections (deterministic: every replica would refuse too).
			b.br.success()
			b.budget.earn()
			if res.status == http.StatusTooManyRequests {
				g.met.passthrough.Add(1)
			}
			if i > 0 {
				g.met.failovers.Add(1)
			}
			res.hedge = hedge
			resc <- res
			return
		}
		// Transport death or replica-side 5xx (a 503 draining replica, a
		// recovered panic): the request is idempotent, fail over.
		b.fail()
		if err != nil {
			lastErr = fmt.Errorf("backend %s: %w", b.ID(), err)
		} else {
			lastErr = fmt.Errorf("backend %s answered %d", b.ID(), res.status)
		}
	}
	resc <- attemptResult{err: lastErr, hedge: hedge}
}

// forward performs one backend exchange with the per-try deadline,
// buffering the response fully.
func (g *Gateway) forward(ctx context.Context, b *Backend, r *http.Request, body []byte) (attemptResult, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.perTryTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, b.URL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return attemptResult{}, err
	}
	req.Header = r.Header.Clone()
	req.Header.Del("Connection")
	setDeadlineHeader(req, ctx)
	b.requests.Add(1)
	resp, err := g.client.Do(req)
	if err != nil {
		return attemptResult{}, err
	}
	defer resp.Body.Close()
	rbody, err := io.ReadAll(resp.Body)
	if err != nil {
		return attemptResult{}, err
	}
	return attemptResult{
		status:  resp.StatusCode,
		header:  resp.Header.Clone(),
		body:    rbody,
		backend: b,
	}, nil
}

// DeadlineHeader carries the remaining request deadline downstream as
// integer milliseconds. Milliseconds-remaining (not an absolute
// timestamp) keeps the wire format clock-skew-free: each hop re-derives
// "how long do I have" from its own clock.
const DeadlineHeader = "X-Adwars-Deadline"

// setDeadlineHeader stamps the outbound request with the tightest known
// deadline: the per-try context deadline, narrowed further by any
// deadline the client itself propagated in. Serve admission reads this
// to refuse work it cannot finish in time instead of queueing it to die.
func setDeadlineHeader(req *http.Request, ctx context.Context) {
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if vs := req.Header[DeadlineHeader]; len(vs) > 0 {
		if inbound, err := strconv.ParseInt(vs[0], 10, 64); err == nil && inbound < ms {
			ms = inbound
		}
	}
	req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
}

// deliver relays a buffered backend response to the client, replica
// attribution header included.
func (g *Gateway) deliver(w http.ResponseWriter, res attemptResult) {
	g.met.proxied.Add(1)
	if id := res.header.Get("X-Adwars-Replica"); id != "" {
		res.backend.learnID(id)
	}
	h := w.Header()
	for k, vs := range res.header {
		if k == "Connection" || k == "Transfer-Encoding" || k == "Content-Length" {
			continue
		}
		h[k] = vs
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// ---- gateway control plane ----

// handleHealthz reports the gateway's own routability: 200 while at
// least one backend is available.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := g.met.snapshotFor(g.pool)
	available := 0
	for _, b := range snap.Backends {
		if b.Healthy && b.Breaker != "open" {
			available++
		}
	}
	status := http.StatusOK
	state := "ok"
	if available == 0 {
		status = http.StatusServiceUnavailable
		state = "no available backends"
	}
	writeGatewayJSON(w, status, struct {
		Status    string            `json:"status"`
		Available int               `json:"available"`
		Backends  []backendSnapshot `json:"backends"`
	}{state, available, snap.Backends})
}

// handleDebugVars renders the process-global expvar registry plus the
// gateway tree under "adwars_gateway", mirroring serve's endpoint shape
// so adwars-loadgen can read either side with one code path.
func (g *Gateway) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	fmt.Fprintf(w, "{\n")
	first := true
	expvar.Do(func(kv expvar.KeyValue) {
		if kv.Key == "adwars_gateway" {
			return // replaced below with this gateway's tree
		}
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		first = false
		fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
	})
	if !first {
		fmt.Fprintf(w, ",\n")
	}
	fmt.Fprintf(w, "%q: %s", "adwars_gateway", g.Metrics().String())
	fmt.Fprintf(w, "\n}\n")
}

func writeGatewayJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeGatewayError mirrors serve's structured error envelope so gateway
// clients parse one shape regardless of which layer answered.
func writeGatewayError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeGatewayJSON(w, status, struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}{struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}{code, fmt.Sprintf(format, args...)}})
}
