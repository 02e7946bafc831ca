package fleet

import (
	"encoding/json"

	"adwars/internal/chassis"
)

// gatewayMetrics is the gateway's counter tree, exported as one JSON
// object under "adwars_gateway" in /debug/vars: the counters as they stand,
// then what the pool's backends look like now. The headline counters are
// the failover ledger: retries and failovers say how often a replica
// failed under a request and the request survived anyway.
type gatewayMetrics struct {
	pool *Pool

	Requests    chassis.Counter `json:"requests"`        // /v1 requests entering the proxy
	Proxied     chassis.Counter `json:"proxied"`         // responses relayed from a backend (any status)
	Retries     chassis.Counter `json:"retries"`         // extra attempts after a backend failure
	Failovers   chassis.Counter `json:"failovers"`       // requests that succeeded on a different backend than first tried
	NoBackend   chassis.Counter `json:"no_backend_5xx"`  // 502s: every attempt exhausted
	Passthrough chassis.Counter `json:"passthrough_429"` // backend 429s relayed untouched (no retry)
	// BudgetExhausted counts attempt chains stopped because the target
	// backend's retry budget was dry — extra load the gateway refused
	// to generate.
	BudgetExhausted chassis.Counter `json:"retry_budget_exhaustions"`
}

func (m *gatewayMetrics) MarshalJSON() ([]byte, error) {
	type counters gatewayMetrics // the tagged fields without this method
	return json.Marshal(struct {
		*counters
		Backends []backendSnapshot `json:"backends"`
	}{(*counters)(m), m.pool.snapshot()})
}

// String renders the tree as JSON, satisfying expvar.Var.
func (m *gatewayMetrics) String() string { return chassis.JSON(m) }

// backendSnapshot is one backend as the metrics tree and /healthz show it.
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

// snapshot reads every backend's state.
func (p *Pool) snapshot() []backendSnapshot {
	var out []backendSnapshot
	for _, b := range p.backends {
		bs := backendSnapshot{
			URL:          b.URL,
			Healthy:      b.healthy.Load(),
			Breaker:      b.br.State(),
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
		out = append(out, bs)
	}
	return out
}
