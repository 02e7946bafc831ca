// Command adwars-report regenerates every table and figure of the paper
// in one run and prints a combined report — the data recorded in
// EXPERIMENTS.md. Run with -scale 1 for full paper scale (slow) or a
// larger factor for a proportional quick pass.
//
// Usage:
//
//	adwars-report [-scale N] [-seed S] [-stride M] [-folds K]
//	adwars-report -live [-spill DIR] [-url http://HOST:PORT] [-top K]
//
// -live switches from the paper experiments to a serving-run coverage
// dashboard built from the decision analytics pipeline: top firing rules,
// per-domain block rates, and the verdict mix over time. Rows come from
// the JSONL spill files an adwars-serve -analytics-spill run wrote
// (-spill DIR; a replica restarted on the same directory numbers its files
// on after the earlier runs'), from a running server's /admin/analytics
// snapshot (-url; every adwars-serve has one), or both — spilled history
// plus the in-memory buckets not yet evicted, which together cover the
// whole run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"adwars/internal/analytics"
	"adwars/internal/antiadblock"
	"adwars/internal/experiments"
	"adwars/internal/features"
	"adwars/internal/simworld"
)

func section(title string) {
	fmt.Printf("\n================ %s ================\n\n", title)
}

func main() {
	scale := flag.Int("scale", 10, "world shrink factor (1 = paper scale)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	stride := flag.Int("stride", 1, "crawl every Mth month")
	folds := flag.Int("folds", 10, "cross-validation folds")
	maxSamples := flag.Int("maxsamples", 1650, "ML corpus cap (0 = unlimited)")
	liveMode := flag.Bool("live", false, "render a serving-run analytics dashboard instead of the paper report")
	spillDir := flag.String("spill", "", "with -live: analytics JSONL spill directory to read")
	liveURL := flag.String("url", "", "with -live: base URL of a running adwars-serve to snapshot")
	topK := flag.Int("top", 10, "with -live: rows per ranking section")
	flag.Parse()

	if *liveMode {
		os.Exit(runLive(*spillDir, *liveURL, *topK))
	}

	started := time.Now()
	if *scale < 1 {
		log.Fatalf("-scale %d: want a shrink factor of at least 1 (1 = paper scale)", *scale)
	}
	cfg := simworld.Scaled(*seed, *scale)
	fmt.Printf("adwars-report — scale 1/%d (universe %d domains), seed %d\n",
		*scale, cfg.UniverseSize, *seed)
	lab := experiments.NewLab(cfg)

	section("Figure 1 — filter list evolution")
	fmt.Println(experiments.Fig1(lab.Lists.AAK, lab.World.Cfg.End).Render())
	fmt.Println(experiments.Fig1(lab.Lists.AWRL, lab.World.Cfg.End).Render())
	fmt.Println(experiments.Fig1(lab.Lists.EasyListAA, lab.World.Cfg.End).Render())

	section("Table 1 / Figure 2 / §3.3 / Figure 3 — list comparison")
	fmt.Println(lab.Table1().Render())
	fmt.Println(lab.Fig2().Render())
	fmt.Println(lab.Overlap().Render())
	fmt.Println(experiments.RenderSharedRules(lab.SharedRuleExhibit(4)))
	fmt.Println(lab.Fig3().Render())

	section("Figures 5–7 — retrospective coverage (Wayback crawl)")
	fmt.Fprintf(os.Stderr, "crawling %d months...\n", len(lab.RetroMonths(*stride)))
	retro, err := lab.RunRetrospective(context.Background(), experiments.RetroConfig{
		Months: lab.RetroMonths(*stride),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(retro.RenderFig5())
	fmt.Println(retro.RenderFig6())
	fmt.Println(lab.Fig7(0).Render())

	section("Circumvention effectiveness (adblock-user simulation)")
	fmt.Println(lab.Circumvention(0, lab.World.Cfg.End).Render())

	section("§4.3 — live web coverage")
	live, err := lab.RunLive(context.Background(), experiments.LiveConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(live.Render())

	section("§5 — anti-adblock script detection")
	rows2, err := experiments.Table2(antiadblock.ReferenceBlockAdBlock)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.RenderTable2(rows2))

	corpus := &experiments.Corpus{Positives: retro.CorpusPos, Negatives: retro.CorpusNeg}
	fmt.Printf("corpus: %d positives, %d negatives (%.1f:1)\n\n",
		len(corpus.Positives), len(corpus.Negatives), corpus.Imbalance())
	fmt.Fprintln(os.Stderr, "running Table 3 sweep...")
	rows3, err := experiments.Table3(corpus, experiments.Table3Config{
		TopK: []int{100, 1000, 10000}, Folds: *folds, Seed: *seed, MaxSamples: *maxSamples,
	})
	if err != nil {
		// A corpus too small to cross-validate (a small world at a large
		// scale) refuses Table 3; that refusal is the section, and the rest
		// of the report, its Table 3 targets included, does without its rows.
		fmt.Printf("Table 3 not computed: %v\n\n", err)
	} else {
		fmt.Println(experiments.RenderTable3(rows3))
	}

	// Each §5 step below refuses a corpus it cannot run on the way Table 3
	// does: the refusal is its section, and the targets that read its
	// result print —.
	if base, err := experiments.CompareBaselines(corpus, *seed); err != nil {
		fmt.Printf("§5 baseline not computed: %v\n\n", err)
	} else {
		fmt.Println(base.Render())
	}

	if top, err := experiments.TopFeatures(corpus, features.SetKeyword, 15); err != nil {
		fmt.Printf("§5 top features not computed: %v\n\n", err)
	} else {
		fmt.Println(experiments.RenderTopFeatures(top, features.SetKeyword))
	}

	res, err := experiments.LiveModelTest(corpus, live.Scripts, 5000, *seed, experiments.PipelineConfig{})
	if err != nil {
		fmt.Printf("§5 live model test not computed: %v\n\n", err)
	} else {
		fmt.Println(res.Render())
	}

	section("Paper vs measured")
	fmt.Println(experiments.RenderTargets(lab, &experiments.Results{
		Retro: retro, Live: live, Fig7: lab.Fig7(0), Table3: rows3, LiveTest: res,
	}))

	fmt.Printf("report complete in %s\n", time.Since(started).Round(time.Second))
}

// runLive builds the serving-run dashboard from spill files and/or a live
// /admin/analytics snapshot and prints it. Returns the exit code.
func runLive(spillDir, liveURL string, topK int) int {
	if spillDir == "" && liveURL == "" {
		fmt.Fprintln(os.Stderr, "adwars-report: -live needs -spill DIR and/or -url http://HOST:PORT")
		return 2
	}
	var rows []analytics.Row
	if spillDir != "" {
		spilled, err := analytics.ReadSpillDir(spillDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adwars-report: spill: %v\n", err)
			return 1
		}
		rows = append(rows, spilled...)
		fmt.Fprintf(os.Stderr, "adwars-report: %d rows from spill %s\n", len(spilled), spillDir)
	}
	if liveURL != "" {
		snap, err := fetchAnalyticsSnapshot(liveURL)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adwars-report: live snapshot: %v\n", err)
			return 1
		}
		liveRows := analytics.RowsFromSnapshot(snap)
		rows = append(rows, liveRows...)
		fmt.Fprintf(os.Stderr, "adwars-report: %d rows from %s (%d in-memory buckets)\n",
			len(liveRows), liveURL, snap.AggBuckets)
	}
	fmt.Print(analytics.BuildReport(rows).Render(topK))
	return 0
}

// fetchAnalyticsSnapshot reads a running server's /admin/analytics.
func fetchAnalyticsSnapshot(base string) (*analytics.Snapshot, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/admin/analytics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /admin/analytics: status %d", resp.StatusCode)
	}
	var snap analytics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
