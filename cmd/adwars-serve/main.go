// Command adwars-serve is the online serving layer: it loads the model and
// filter-list snapshots written by adwars-detect and adwars-lists and
// answers block decisions (/v1/match) and anti-adblock classifications
// (/v1/classify) over HTTP, with batch variants, per-endpoint metrics at
// /debug/vars, and load shedding under overload.
//
// Usage:
//
//	adwars-serve -model model.json -lists lists.json [-addr :8080]
//	             [-workers N] [-queue N] [-queue-timeout D]
//	             [-portfile PATH] [-replica ID] [-drain-announce D]
//	             [-analytics-spill DIR]
//
// Overload is shed at admission: -workers requests run at once, up to
// -queue more wait at most -queue-timeout (25ms) for a slot, and every other
// /v1 request is answered at once with a 429 whose Retry-After is 1, 2 or 3
// seconds, drawn at random so that clients shed together do not return
// together. No request is degraded: what is admitted gets the full answer.
//
// Every replica also runs the decision analytics pipeline: each /v1/match
// and /v1/classify verdict is logged into lock-free rings, aggregated into
// time buckets and snapshotted at /admin/analytics. With -analytics-spill
// the buckets are also written as rotated JSONL files, numbered on from
// what earlier runs left in the directory, that adwars-report -live
// renders into coverage dashboards. On SIGTERM the rings and final
// aggregator state flush to spill before exit.
//
// Behind adwars-gateway, -replica names this process in the
// X-Adwars-Replica response header and /healthz, and -drain-announce
// holds the listener open for a beat after /readyz flips to 503 so the
// gateway's health poller routes traffic away before connections close.
//
// SIGHUP (or POST /admin/reload) atomically re-reads both snapshots from
// disk without dropping in-flight requests; SIGINT/SIGTERM drain in-flight
// requests (up to 5s) and flush a final metrics snapshot to stderr
// before exiting. -portfile writes the bound host:port after listening,
// so scripts can use -addr 127.0.0.1:0 for an ephemeral port.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adwars/internal/analytics"
	"adwars/internal/artifact"
	"adwars/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:0 picks an ephemeral port)")
	model := flag.String("model", "", "model snapshot path (from adwars-detect -save-model)")
	lists := flag.String("lists", "", "lists snapshot path (from adwars-lists -save-snapshot)")
	workers := flag.Int("workers", 0, "concurrent request slots (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4x workers)")
	queueTimeout := flag.Duration("queue-timeout", 0, "max queue wait before shedding (0 = default)")
	drainAnnounce := flag.Duration("drain-announce", 0, "pause between flipping /readyz to 503 and closing the listener, so gateways route away first")
	replica := flag.String("replica", "", "replica identity reported in X-Adwars-Replica and /healthz")
	portfile := flag.String("portfile", "", "write the bound host:port to this file after listening")
	anlSpill := flag.String("analytics-spill", "", "directory for rotated JSONL analytics spill files (empty = in-memory only)")
	flag.Parse()

	if *model == "" && *lists == "" {
		log.Fatal("need at least one of -model or -lists")
	}

	s := serve.New(serve.Config{
		ModelPath:     *model,
		ListsPath:     *lists,
		Workers:       *workers,
		Queue:         *queue,
		QueueTimeout:  *queueTimeout,
		DrainAnnounce: *drainAnnounce,
		ReplicaID:     *replica,
		MetricsOut:    os.Stderr,
		Analytics:     &analytics.Config{SpillDir: *anlSpill},
	})
	if err := s.AnalyticsError(); err != nil {
		log.Fatalf("analytics: %v", err)
	}
	if err := s.ReloadSnapshots(); err != nil {
		log.Fatalf("initial snapshot load: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	if *portfile != "" {
		// Atomic so a watcher polling the portfile never reads a torn
		// half-written address.
		if err := artifact.WriteFileAtomic(*portfile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatalf("portfile: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "adwars-serve listening on %s (model=%q lists=%q)\n",
		ln.Addr(), *model, *lists)

	// SIGINT/SIGTERM cancel the serve context → graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP hot-reloads both snapshots; a failed reload keeps serving the
	// previous ones.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				start := time.Now()
				if err := s.ReloadSnapshots(); err != nil {
					log.Printf("SIGHUP reload failed (still serving old snapshots): %v", err)
				} else {
					log.Printf("SIGHUP reload ok in %v", time.Since(start))
				}
			}
		}
	}()

	if err := s.Serve(ctx, ln); err != nil {
		log.Fatalf("serve: %v", err)
	}
	fmt.Fprintln(os.Stderr, "adwars-serve: drained, bye")
}
