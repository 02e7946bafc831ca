// Command adwars-wayback runs the §4.1–4.2 retrospective measurement:
// monthly Wayback-style crawls of the top-N, replayed against historic
// filter list versions. It prints Figure 5 (missing snapshots), Figure 6
// (rule triggers over time), and Figure 7 (detection delay CDFs).
//
// The crawl engine is fault-tolerant: -fault-rate injects deterministic
// transient archive failures (rate limiting, timeouts, truncated bodies,
// outages) which the crawl's per-request retries absorb — the figures are
// identical to a zero-fault run with the same seed. Every archive answer is
// a function of the seed, so a killed run recovers by running again: it
// prints the same bytes.
//
// The crawl and the replay after it run ten wide, the paper's ten browser
// instances (crawler.Browsers); the figures do not depend on the width.
// The §5 fan-out that follows the crawl elsewhere (adwars-detect) is
// bounded by GOMAXPROCS instead.
//
// Usage:
//
//	adwars-wayback [-scale N] [-seed S] [-stride M]
//	               [-fault-rate P]
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
	"adwars/internal/wayback"
)

func main() {
	scale := flag.Int("scale", 10, "world shrink factor (1 = paper scale)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	stride := flag.Int("stride", 1, "crawl every Mth month")
	faultRate := flag.Float64("fault-rate", 0, "per-attempt transient archive failure probability (0 disables fault injection)")
	flag.Parse()

	if *scale < 1 {
		log.Fatalf("-scale %d: want a shrink factor of at least 1 (1 = paper scale)", *scale)
	}
	cfg := simworld.Scaled(*seed, *scale)
	fmt.Fprintf(os.Stderr, "building world (universe %d, seed %d)...\n", cfg.UniverseSize, *seed)
	lab := experiments.NewLab(cfg)

	var metrics crawler.Metrics
	retroCfg := experiments.RetroConfig{
		Months:  lab.RetroMonths(*stride),
		Metrics: &metrics,
	}
	if *faultRate > 0 {
		retroCfg.Faults = wayback.DefaultFaultConfig(*faultRate, *seed)
	}

	fmt.Fprintf(os.Stderr, "crawling %d months...\n", len(retroCfg.Months))
	retro, err := lab.RunRetrospective(context.Background(), retroCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(retro.RenderFig5())
	fmt.Println(retro.RenderFig6())
	fmt.Println(lab.Fig7(0).Render())
	fmt.Printf("corpus: %d anti-adblock scripts, %d benign scripts\n",
		len(retro.CorpusPos), len(retro.CorpusNeg))
	fmt.Fprintf(os.Stderr, "crawl: %s\n", &metrics)
}
