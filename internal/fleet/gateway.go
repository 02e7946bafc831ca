package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"time"

	"adwars/internal/chassis"
	"adwars/internal/wire"
)

// GatewayConfig parameterizes a Gateway.
type GatewayConfig struct {
	// Backends are the replica base URLs ("host:port" gets "http://").
	Backends []string
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
// with retry and failover. Create with NewGateway, run the health loop,
// and expose Handler (or use Serve).
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

// attemptResult is the attempt chain's outcome: a fully buffered backend
// response, or the error that ended the chain. Buffering the body means a
// retry never has a half-consumed stream to clean up. body is pooled: the
// handler hands it back (release).
type attemptResult struct {
	reply
	body    *buffer
	backend *Backend
	err     error
}

func (res *attemptResult) release() { putBuffer(res.body) }

// triedSet is the set of backends a request has been sent to, so the
// chain never sends it to the same replica twice. It lives on the
// handler's stack: the first few entries are held in place, and only a
// longer chain spills to the heap.
type triedSet struct {
	n     int
	first [4]*Backend
	more  []*Backend // the fifth and later
}

func (t *triedSet) has(b *Backend) bool {
	return slices.Contains(t.first[:t.n], b) || slices.Contains(t.more, b)
}

// pick draws the pool's next untried backend and marks it tried.
func (t *triedSet) pick(p *Pool) *Backend {
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

	res := g.attemptChain(r.Context(), o)
	defer res.release()
	if res.err != nil {
		g.met.NoBackend.Add(1)
		chassis.WriteError(w, http.StatusBadGateway, "no_backend",
			"no replica could answer: %v", res.err)
		return
	}
	g.deliver(w, &res)
}

// attemptChain tries successive backends, each at most once, until one
// answers (any status below 500), no backend remains, or the client
// is gone. Every retry (i > 0) must be paid for out of the target
// backend's retry budget: when the bucket is dry the chain stops instead
// of amplifying load against a fleet that is already failing.
func (g *Gateway) attemptChain(ctx context.Context, o *outbound) attemptResult {
	lastErr := errNoBackend
	res := attemptResult{body: getBuffer()}
	var tried triedSet
	for i := range g.pool.backends {
		if ctx.Err() != nil {
			lastErr = ctx.Err()
			break
		}
		b := tried.pick(g.pool)
		if b == nil {
			break
		}
		if i > 0 {
			if !b.budget.spend() {
				g.met.BudgetExhausted.Add(1)
				lastErr = fmt.Errorf("backend %s: retry budget exhausted", b.ID())
				break
			}
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
		if errors.Is(err, context.Canceled) {
			// The client hung up: the replica did nothing wrong, so no
			// failure is charged, and nobody is left to answer.
			lastErr = err
			break
		}
		// Transport death, a per-try timeout or a replica-side 5xx (a 503
		// draining replica, a recovered panic): the request is
		// idempotent, fail over.
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
