package fleet

import (
	"encoding/json"
	"io"
	"sync/atomic"
)

// gatewayMetrics is the gateway's counter tree, exported as one JSON
// object under "adwars_gateway" in /debug/vars. The headline counters are
// the failover ledger: retries and failovers say how often a replica
// failed under a request and the request survived anyway.
type gatewayMetrics struct {
	requests    atomic.Uint64 // /v1 requests entering the proxy
	proxied     atomic.Uint64 // responses relayed from a backend (any status)
	retries     atomic.Uint64 // extra attempts after a backend failure
	failovers   atomic.Uint64 // requests that succeeded on a different backend than first tried
	hedges      atomic.Uint64 // hedge chains fired
	hedgeWins   atomic.Uint64 // requests won by the hedge chain
	noBackend   atomic.Uint64 // 502s: every attempt exhausted
	passthrough atomic.Uint64 // backend 429s relayed untouched (no retry)
	// budgetExhausted counts attempt chains stopped because the target
	// backend's retry budget was dry — extra load the gateway refused
	// to generate.
	budgetExhausted atomic.Uint64
}

// backendSnapshot is one backend's counters in the metrics tree.
type backendSnapshot struct {
	URL       string `json:"url"`
	Replica   string `json:"replica,omitempty"`
	Healthy   bool   `json:"healthy"`
	Breaker   string `json:"breaker"`
	Requests  uint64 `json:"requests"`
	Failures  uint64 `json:"failures"`
	Ejections uint64 `json:"ejections"`
	Unready   uint64 `json:"unready_checks"`
	// BudgetTokens is the backend's remaining retry-budget tokens.
	BudgetTokens float64 `json:"budget_tokens"`
	// The proxy path's connection pool to this backend: connections
	// opened, exchanges resent on a fresh connection because a kept-alive
	// one had died idle, and connections idle now.
	Dials        uint64 `json:"dials"`
	StaleRedials uint64 `json:"stale_redials"`
	IdleConns    int    `json:"idle_conns"`
}

type gatewaySnapshot struct {
	Requests        uint64            `json:"requests"`
	Proxied         uint64            `json:"proxied"`
	Retries         uint64            `json:"retries"`
	Failovers       uint64            `json:"failovers"`
	Hedges          uint64            `json:"hedges"`
	HedgeWins       uint64            `json:"hedge_wins"`
	NoBackend       uint64            `json:"no_backend_5xx"`
	Passthrough     uint64            `json:"passthrough_429"`
	BudgetExhausted uint64            `json:"retry_budget_exhaustions"`
	Backends        []backendSnapshot `json:"backends"`
}

// snapshotFor renders the tree over the given pool.
func (m *gatewayMetrics) snapshotFor(p *Pool) gatewaySnapshot {
	out := gatewaySnapshot{
		Requests:        m.requests.Load(),
		Proxied:         m.proxied.Load(),
		Retries:         m.retries.Load(),
		Failovers:       m.failovers.Load(),
		Hedges:          m.hedges.Load(),
		HedgeWins:       m.hedgeWins.Load(),
		NoBackend:       m.noBackend.Load(),
		Passthrough:     m.passthrough.Load(),
		BudgetExhausted: m.budgetExhausted.Load(),
	}
	for _, b := range p.Backends() {
		bs := backendSnapshot{
			URL:          b.URL,
			Healthy:      b.healthy.Load(),
			Breaker:      b.br.current().String(),
			Requests:     b.requests.Load(),
			Failures:     b.failures.Load(),
			Ejections:    b.ejections.Load(),
			Unready:      b.unready.Load(),
			BudgetTokens: b.budget.level(),
			Dials:        b.dials.Load(),
			StaleRedials: b.staleRedials.Load(),
			IdleConns:    b.idleConns(),
		}
		if id := b.ID(); id != b.URL {
			bs.Replica = id
		}
		out.Backends = append(out.Backends, bs)
	}
	return out
}

// gatewayVar adapts the metrics tree to expvar.Var / fmt.Stringer.
type gatewayVar struct {
	met  *gatewayMetrics
	pool *Pool
}

func (v gatewayVar) String() string {
	data, err := json.Marshal(v.met.snapshotFor(v.pool))
	if err != nil {
		return "{}"
	}
	return string(data)
}

// flush writes a final indented snapshot on shutdown.
func (v gatewayVar) flush(w io.Writer) {
	if w == nil {
		return
	}
	data, err := json.MarshalIndent(v.met.snapshotFor(v.pool), "", "  ")
	if err != nil {
		return
	}
	w.Write(append(data, '\n'))
}
