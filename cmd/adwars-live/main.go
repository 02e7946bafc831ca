// Command adwars-live runs the §4.3 live-web measurement: crawl the
// ranked universe at the live date (April 2017) and match against the
// most recent filter list versions.
//
// The crawl and the rule matching after it run ten wide, the paper's ten
// browser instances (crawler.Browsers); the figures do not depend on the
// width. The §5 fan-out (adwars-detect) is bounded by GOMAXPROCS instead.
//
// Usage:
//
//	adwars-live [-scale N] [-seed S]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"adwars/internal/crawler"
	"adwars/internal/experiments"
	"adwars/internal/simworld"
)

func main() {
	scale := flag.Int("scale", 10, "world shrink factor (1 = paper scale)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	flag.Parse()

	if *scale < 1 {
		log.Fatalf("-scale %d: want a shrink factor of at least 1 (1 = paper scale)", *scale)
	}
	cfg := simworld.Scaled(*seed, *scale)
	fmt.Fprintf(os.Stderr, "building world (universe %d, seed %d)...\n", cfg.UniverseSize, *seed)
	lab := experiments.NewLab(cfg)

	var metrics crawler.Metrics
	res, err := lab.RunLive(context.Background(), experiments.LiveConfig{Metrics: &metrics})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())
	fmt.Fprintf(os.Stderr, "crawl: %s\n", &metrics)
}
