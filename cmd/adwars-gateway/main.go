// Command adwars-gateway fronts a fleet of adwars-serve replicas: it
// load-balances /v1/* requests across them with active health checks
// (each replica's /readyz), passive failure ejection (per-replica circuit
// breakers), bounded retry/failover, and optional request hedging — so a
// killed or draining replica costs failover ticks, not client-visible
// 5xx. The gateway's own /healthz reports fleet routability and
// /debug/vars exports the failover ledger under "adwars_gateway".
//
// Usage:
//
//	adwars-gateway -backends host:port,host:port,... [-addr :8090]
//	               [-hedge-delay D] [-portfile PATH]
//
// Each replica's /readyz is polled every 250ms. A request tries each
// replica at most once, and its retries and hedges spend from a
// per-replica token budget (10 tokens, refilled by 0.1 per
// successful exchange), so a struggling fleet is never hammered with
// unbounded extra attempts. The gateway also stamps X-Adwars-Deadline — the
// remaining per-try time budget in milliseconds, narrowed by any
// deadline the client already propagated — so replicas can refuse work
// they cannot finish in time.
//
// Backends are plain-HTTP base URLs (http://host[:port][/prefix]); the
// gateway keeps up to 64 idle keep-alive connections to each and reports
// dials, stale_redials and idle_conns per backend in /healthz and the
// metrics tree.
//
// SIGINT/SIGTERM drain in-flight requests, close the idle backend
// connections and flush a final metrics snapshot to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adwars/internal/artifact"
	"adwars/internal/fleet"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "listen address (host:0 picks an ephemeral port)")
	backends := flag.String("backends", "", "comma-separated replica base URLs or host:port list (required)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "fire a second attempt on another replica after this delay (0 = hedging off)")
	portfile := flag.String("portfile", "", "write the bound host:port to this file after listening")
	flag.Parse()

	if *backends == "" {
		log.Fatal("need -backends (comma-separated replica addresses)")
	}
	g, err := fleet.NewGateway(fleet.GatewayConfig{
		Backends:   strings.Split(*backends, ","),
		HedgeDelay: *hedgeDelay,
		MetricsOut: os.Stderr,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	if *portfile != "" {
		if err := artifact.WriteFileAtomic(*portfile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatalf("portfile: %v", err)
		}
	}
	var ids []string
	for _, b := range g.Pool().Backends() {
		ids = append(ids, b.URL)
	}
	fmt.Fprintf(os.Stderr, "adwars-gateway listening on %s, %d backends: %s\n",
		ln.Addr(), len(ids), strings.Join(ids, " "))
	if *hedgeDelay > 0 {
		fmt.Fprintf(os.Stderr, "adwars-gateway hedging after %v\n", *hedgeDelay)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	if err := g.Serve(ctx, ln); err != nil {
		log.Fatalf("gateway: %v", err)
	}
	fmt.Fprintf(os.Stderr, "adwars-gateway: drained after %v, bye\n", time.Since(start).Round(time.Millisecond))
}
