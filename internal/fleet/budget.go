package fleet

import "sync"

// budgetTenths is a full retry budget, ten tokens, counted in the tenths
// of a token a successful exchange earns back: ten successes fund exactly
// one extra attempt.
const budgetTenths = 100

// retryBudget is a per-backend token bucket bounding the *extra* load
// the gateway may generate against that backend: every retry spends one
// token, and only successful exchanges earn
// tokens back (a fractional refill per success). Under a healthy fleet
// the bucket sits full and the gateway behaves exactly as before; under
// sustained failure the bucket drains and retries stop — which is the
// point: amplifying traffic against a browning-out backend turns a
// local overload into a fleet-wide retry storm.
type retryBudget struct {
	mu     sync.Mutex
	tenths int
}

// spend takes one token; false means the budget is exhausted and the
// caller must not send the extra attempt.
func (b *retryBudget) spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tenths >= 10 {
		b.tenths -= 10
		return true
	}
	return false
}

// earn credits one success's worth of refill, capped at the bucket size.
func (b *retryBudget) earn() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tenths = min(b.tenths+1, budgetTenths)
}

// level reads the current token count for metrics.
func (b *retryBudget) level() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return float64(b.tenths) / 10
}
