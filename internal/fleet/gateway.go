package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"adwars/internal/chassis"
	"adwars/internal/wire"
)

// GatewayConfig parameterizes a Gateway.
type GatewayConfig struct {
	// Backends are the replica base URLs ("host:port" gets "http://").
	Backends []string
	// HedgeDelay, when >0, fires a second attempt chain against
	// different backends if the first has not answered within the delay;
	// the first success wins. All /v1 endpoints are idempotent pure
	// functions, so hedging is always safe here.
	HedgeDelay time.Duration
	// MetricsOut, when non-nil, receives a final metrics snapshot on
	// graceful shutdown.
	MetricsOut io.Writer
}

const (
	// maxBody bounds a proxied request body; kept above the replicas' own
	// cap so oversized bodies get the replica's 413, not a
	// gateway-invented answer.
	maxBody = 8 << 20
	// perTryTimeout bounds a single backend exchange; a client context
	// with an earlier deadline narrows it.
	perTryTimeout = 5 * time.Second
	// drainTimeout bounds graceful shutdown.
	drainTimeout = 5 * time.Second
)

// Gateway load-balances /v1/* traffic across a pool of serve replicas
// with retry, failover, and optional hedging. Create with NewGateway,
// run the health loop, and expose Handler (or use Serve).
type Gateway struct {
	cfg  GatewayConfig
	pool *Pool
	met  *gatewayMetrics
	mux  http.Handler
}

// NewGateway builds a gateway over cfg.Backends.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	pool := newPool(cfg.Backends)
	if len(pool.Backends()) == 0 {
		return nil, errors.New("fleet: gateway needs at least one backend")
	}
	for _, b := range pool.Backends() {
		var err error
		if b.host, b.addr, b.prefix, err = splitBackendURL(b.URL); err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}
	g := &Gateway{cfg: cfg, pool: pool, met: &gatewayMetrics{pool: pool}}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", g.handleProxy)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/debug/vars", g.handleDebugVars)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		chassis.WriteError(w, http.StatusNotFound, "not_found", "no such endpoint: %s", r.URL.Path)
	})
	g.mux = mux
	return g, nil
}

// Pool returns the backend pool (for the health loop and metrics).
func (g *Gateway) Pool() *Pool { return g.pool }

// Metrics returns the gateway metrics tree as an expvar-compatible Var.
func (g *Gateway) Metrics() fmt.Stringer { return g.met }

// Handler returns the gateway's HTTP handler tree.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Serve runs the health loop and accepts connections on ln until ctx is
// cancelled, then drains (bounded by drainTimeout) and flushes metrics.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	healthCtx, stopHealth := context.WithCancel(context.Background())
	defer stopHealth()
	go g.pool.HealthLoop(healthCtx)
	ws := &wire.Server{Handler: g.mux}
	err := ws.Run(ctx, ln, drainTimeout, nil)
	g.pool.closeIdle()
	chassis.Flush(g.cfg.MetricsOut, g.met)
	if err != nil {
		return fmt.Errorf("fleet: gateway %w", err)
	}
	return nil
}

// ---- proxy data path ----

// attemptResult is one chain's outcome: a fully buffered backend
// response, or the error that exhausted the chain. Buffering the body
// makes retries and hedging race-free — there is never a half-consumed
// stream to clean up. body is pooled: whoever ends up holding the result
// hands it back (release).
type attemptResult struct {
	reply
	body    *buffer
	backend *Backend
	err     error
}

func (res *attemptResult) release() { putBuffer(res.body) }

// triedSet is the set of backends a request has been sent to, shared
// between the primary and hedge chains so they never duplicate work on
// the same replica. It lives on the handler's stack: the first few
// entries are held in place, and only a longer chain spills to the heap.
// mu is set only when two chains share the set (a sync.Mutex held by
// value would move the whole set to the heap for every request).
type triedSet struct {
	mu    *sync.Mutex
	n     int
	first [4]*Backend
	more  []*Backend // the fifth and later
}

func (t *triedSet) has(b *Backend) bool {
	return slices.Contains(t.first[:t.n], b) || slices.Contains(t.more, b)
}

// pick draws the pool's next untried backend and marks it tried.
func (t *triedSet) pick(p *Pool) *Backend {
	if t.mu != nil {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	b := p.pick(t)
	switch {
	case b == nil:
	case t.n < len(t.first):
		t.first[t.n] = b
		t.n++
	default:
		t.more = append(t.more, b)
	}
	return b
}

func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	g.met.Requests.Add(1)
	o := getOutbound()
	defer putOutbound(o)
	var ok bool
	if o.body, ok = chassis.ReadBody(w, r, o.body, maxBody); !ok {
		return
	}
	if err := o.render(r); err != nil {
		chassis.WriteError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}

	var res attemptResult
	if g.cfg.HedgeDelay > 0 && len(g.pool.Backends()) > 1 {
		res = g.hedged(r.Context(), o)
	} else {
		var tried triedSet
		res = g.attemptChain(r.Context(), o, &tried, false)
	}
	defer res.release()
	if res.err != nil {
		g.met.NoBackend.Add(1)
		chassis.WriteError(w, http.StatusBadGateway, "no_backend",
			"no replica could answer: %v", res.err)
		return
	}
	g.deliver(w, &res)
}

// hedged runs the primary chain on the caller's goroutine and, if it has
// not finished within the hedge delay, a second chain against different
// backends on the timer's. The first success wins and cancels the other
// chain; a failed chain waits for the other's verdict. Both chains have
// returned before hedged does — the loser exits at once, its connection's
// deadline forced — so nothing touches o, the client's request or a pooled
// buffer once the handler is done.
func (g *Gateway) hedged(ctx context.Context, o *outbound) attemptResult {
	tried := &triedSet{mu: new(sync.Mutex)}
	pctx, cancelPrimary := context.WithCancel(ctx)
	defer cancelPrimary()
	hctx, cancelHedge := context.WithCancel(ctx)
	defer cancelHedge()
	var hedge attemptResult
	hedgeDone := make(chan struct{})
	timer := time.AfterFunc(g.cfg.HedgeDelay, func() {
		defer close(hedgeDone)
		g.met.Hedges.Add(1)
		hedge = g.attemptChain(hctx, o, tried, true)
		if hedge.err == nil {
			cancelPrimary()
		}
	})
	primary := g.attemptChain(pctx, o, tried, false)
	if timer.Stop() {
		return primary // the hedge never fired
	}
	if primary.err == nil {
		cancelHedge()
	}
	<-hedgeDone
	if primary.err == nil || hedge.err != nil {
		hedge.release()
		return primary
	}
	primary.release()
	g.met.HedgeWins.Add(1)
	return hedge
}

// attemptChain tries successive backends, each at most once, until one
// answers (any status below 500) or no backend remains.
// Extra attempts — retries (i > 0) and every attempt of a hedge chain —
// must be paid for out of the target backend's retry budget: when the
// bucket is dry the chain stops instead of amplifying load against a
// fleet that is already failing.
func (g *Gateway) attemptChain(ctx context.Context, o *outbound, tried *triedSet, hedge bool) attemptResult {
	lastErr := errNoBackend
	res := attemptResult{body: getBuffer()}
	for i := range g.pool.backends {
		if ctx.Err() != nil {
			lastErr = ctx.Err()
			break
		}
		b := tried.pick(g.pool)
		if b == nil {
			break
		}
		if i > 0 || hedge {
			if !b.budget.spend() {
				g.met.BudgetExhausted.Add(1)
				lastErr = fmt.Errorf("backend %s: retry budget exhausted", b.ID())
				break
			}
		}
		if i > 0 {
			g.met.Retries.Add(1)
		}
		b.requests.Add(1)
		rep, err := b.exchange(ctx, o, res.body)
		if err == nil && rep.status < http.StatusInternalServerError {
			// Anything below 500 is the replica's real answer — including
			// 429 shed (backpressure a retry would amplify) and 4xx input
			// rejections (deterministic: every replica would refuse too).
			b.br.Success()
			b.budget.earn()
			if rep.status == http.StatusTooManyRequests {
				g.met.Passthrough.Add(1)
			}
			if i > 0 {
				g.met.Failovers.Add(1)
			}
			res.reply, res.backend = rep, b
			return res
		}
		// Transport death or replica-side 5xx (a 503 draining replica, a
		// recovered panic): the request is idempotent, fail over.
		b.fail()
		if err != nil {
			lastErr = fmt.Errorf("backend %s: %w", b.ID(), err)
		} else {
			lastErr = fmt.Errorf("backend %s answered %d", b.ID(), rep.status)
		}
	}
	res.err = lastErr
	return res
}

var errNoBackend = errors.New("no available backend")

// deliver relays a buffered backend response to the client, replica
// attribution header included.
func (g *Gateway) deliver(w http.ResponseWriter, res *attemptResult) {
	g.met.Proxied.Add(1)
	if id := res.header[chassis.ReplicaHeader]; len(id) > 0 {
		res.backend.learnID(id[0])
	}
	h := w.Header()
	for k, vs := range res.header {
		if !hopByHop(k) {
			h[k] = vs
		}
	}
	w.WriteHeader(res.status)
	w.Write(res.body.b)
}

// ---- gateway control plane ----

// handleHealthz reports the gateway's own routability: 200 while at
// least one backend is available.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !chassis.RequireMethod(w, r, http.MethodGet, http.MethodHead) {
		return
	}
	backends := g.pool.snapshot()
	available := 0
	for _, b := range backends {
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
	chassis.WriteJSON(w, status, struct {
		Status    string            `json:"status"`
		Available int               `json:"available"`
		Backends  []backendSnapshot `json:"backends"`
	}{state, available, backends})
}

// handleDebugVars renders the process-global expvar registry plus the
// gateway tree under "adwars_gateway", the shape serve's endpoint has, so
// adwars-loadgen reads either side with one code path.
func (g *Gateway) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	chassis.WriteVars(w, r, chassis.Var{Key: "adwars_gateway", Tree: g.met})
}
