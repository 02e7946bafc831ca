// Package fleet is the multi-replica serving layer over internal/serve:
// a gateway that load-balances /v1/* traffic across N replicas, and a
// snapshot control plane that rolls artifact-sealed snapshots through the
// fleet in stages with automatic rollback.
//
// The gateway (Gateway) fronts a Pool of replica backends. Failure
// handling is layered: active health checks poll each replica's /readyz
// (which replicas flip to 503 at drain start, so planned shutdowns are
// routed around before any connection breaks); passive detection ejects a
// replica after consecutive errors through a per-replica circuit breaker
// with half-open re-admission; and every /v1 request — all of them
// idempotent pure functions — is retried on another replica after a
// transport error or replica-side 5xx, each retry paid for out of that
// replica's retry budget. A killed replica therefore costs retries and
// failover ticks, not user-visible 5xx.
//
// The backend leg is the gateway's own HTTP/1.1 keep-alive wire (wire.go):
// the goroutine serving the client renders the request into a pooled
// connection's buffer, writes it, and has net/http's ReadResponse parse the
// reply off that connection — no transport goroutines in between. A
// kept-alive connection the replica closed while it sat idle is redialled
// once without charging the replica; hop-by-hop headers cross in neither
// direction, and nothing unvalidated is written to a backend.
//
// The control plane (Controller) treats a snapshot as an opaque sealed
// artifact (the CRC64 framing from internal/artifact is the wire format).
// A rollout verifies the artifact locally, captures last-good bytes from
// the fleet, pushes to a canary stage first, watches the canary's health
// and reload_rejected/reload_errors expvars through a bake window, then
// pushes to the rest — and rolls every updated replica back to last-good
// the moment any stage rejects or degrades, keeping the whole fleet on
// one consistent list version (mixed versions would silently skew
// measured coverage across replicas).
package fleet
