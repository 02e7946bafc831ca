// Command adwars-ctl is the fleet snapshot control plane: it pushes
// artifact-sealed model/lists snapshots through a fleet of adwars-serve
// replicas in stages — the first replica as canary, baked for 500ms, then
// everyone, converged within 5s — watching each replica's /healthz and
// reload_rejected/reload_errors counters, and automatically rolling every
// updated replica back to its last-good snapshot when a stage rejects or
// degrades.
//
// Usage:
//
//	adwars-ctl -replicas host:port,host:port,... -status
//	adwars-ctl -replicas ... -push-lists lists.json
//	adwars-ctl -replicas ... -push-model model.json
//
// Exit codes: 0 = rolled out (or status ok), 2 = artifact refused
// locally before any push, 3 = rollout pushed but rolled back, 1 = any
// other error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"adwars/internal/fleet"
)

const (
	exitOK         = 0
	exitErr        = 1
	exitRefused    = 2
	exitRolledBack = 3
)

func main() {
	os.Exit(run())
}

func run() int {
	replicas := flag.String("replicas", "", "comma-separated replica base URLs or host:port list")
	status := flag.Bool("status", false, "print every replica's health and snapshot versions, then exit")
	pushLists := flag.String("push-lists", "", "roll out this sealed lists snapshot to the fleet")
	pushModel := flag.String("push-model", "", "roll out this sealed model snapshot to the fleet")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("adwars-ctl: ")

	if *replicas == "" {
		log.Print("need -replicas (comma-separated replica addresses)")
		return exitErr
	}
	ctl := &fleet.Controller{
		Replicas: strings.Split(*replicas, ","),
		Log:      os.Stderr,
	}
	ctx := context.Background()

	if *status {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(ctl.Status(ctx)); err != nil {
			log.Print(err)
			return exitErr
		}
		return exitOK
	}

	kind, path := "", ""
	switch {
	case *pushLists != "" && *pushModel != "":
		log.Print("use one of -push-lists or -push-model per invocation")
		return exitErr
	case *pushLists != "":
		kind, path = "lists", *pushLists
	case *pushModel != "":
		kind, path = "model", *pushModel
	default:
		log.Print("nothing to do: need -status, -push-lists or -push-model")
		return exitErr
	}

	data, err := os.ReadFile(path)
	if err != nil {
		log.Print(err)
		return exitErr
	}
	start := time.Now()
	res, err := ctl.Rollout(ctx, kind, data)
	switch {
	case errors.Is(err, fleet.ErrBadArtifact):
		log.Printf("refused locally, nothing pushed: %v", err)
		return exitRefused
	case errors.Is(err, fleet.ErrRolledBack):
		log.Printf("rolled back: %s", res.Reason)
		return exitRolledBack
	case err != nil:
		log.Print(err)
		return exitErr
	}
	fmt.Printf("rolled out %s version=%s to %d replica(s) (%d canary) in %v\n",
		res.Kind, res.Version, len(res.Updated), len(res.Canaries), time.Since(start).Round(time.Millisecond))
	return exitOK
}
