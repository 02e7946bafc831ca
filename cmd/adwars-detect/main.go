// Command adwars-detect runs the §5 machine-learning pipeline: collect the
// script corpus from the retrospective crawl, print Table 2's example
// features, sweep the Table 3 configurations with cross-validation, and
// run the out-of-sample live-script test.
//
// Usage:
//
//	adwars-detect [-scale N] [-seed S] [-folds K] [-maxsamples M] [-topk list]
//	              [-save-model PATH [-model-only]]
//
// Extraction, the Gram matrix fill and the cross-validation folds fan out
// one worker per core, GOMAXPROCS of them; results are bit-identical at any
// core count. Training holds the full n×n Gram matrix, n²·8 bytes. The
// Table 3 sweep trains on at most -maxsamples scripts (1 100 by default,
// under 10 MB a matrix), and each fold in flight gathers its own copy of
// its share of that matrix, so GOMAXPROCS also bounds how many fold copies
// are alive at once; the headline model and the live test train on the
// whole corpus trimmed 10:1, 4 081 scripts at -scale 1 -seed 42 — 133 MB.
//
// -save-model PATH freezes the trained headline model (AdaBoost+SVM,
// keyword features, top-1K) as a versioned snapshot for adwars-serve;
// -model-only skips the table sweeps and live test, training and saving
// just that model.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"adwars/internal/antiadblock"
	"adwars/internal/experiments"
	"adwars/internal/ml"
	"adwars/internal/simworld"
)

func main() {
	scale := flag.Int("scale", 20, "world shrink factor (1 = paper scale)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	folds := flag.Int("folds", 10, "cross-validation folds")
	maxSamples := flag.Int("maxsamples", 1100, "Table 3 corpus cap; each Gram matrix is this squared × 8 bytes (0 = unlimited)")
	topkFlag := flag.String("topk", "100,1000", "comma-separated feature budgets")
	saveModel := flag.String("save-model", "", "write the trained headline model snapshot to this path")
	modelOnly := flag.Bool("model-only", false, "skip tables and live test; just train and save the headline model")
	flag.Parse()

	if *modelOnly && *saveModel == "" {
		log.Fatal("-model-only requires -save-model")
	}

	var topk []int
	for _, s := range strings.Split(*topkFlag, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || k < 1 {
			log.Fatalf("bad -topk value %q: want a feature budget of at least 1", s)
		}
		topk = append(topk, k)
	}

	if *scale < 1 {
		log.Fatalf("-scale %d: want a shrink factor of at least 1 (1 = paper scale)", *scale)
	}
	cfg := simworld.Scaled(*seed, *scale)
	fmt.Fprintf(os.Stderr, "building world (universe %d, seed %d)...\n", cfg.UniverseSize, *seed)
	lab := experiments.NewLab(cfg)

	if !*modelOnly {
		// Table 2 on a representative BlockAdBlock-style script.
		rows2, err := experiments.Table2(antiadblock.ReferenceBlockAdBlock)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderTable2(rows2))
	}

	fmt.Fprintln(os.Stderr, "collecting corpus from retrospective crawl...")
	retro, err := lab.RunRetrospective(context.Background(), experiments.RetroConfig{
		Months: lab.RetroMonths(2),
	})
	if err != nil {
		log.Fatal(err)
	}
	corpus := &experiments.Corpus{Positives: retro.CorpusPos, Negatives: retro.CorpusNeg}
	fmt.Printf("corpus: %d positives, %d negatives (%.1f:1 imbalance)\n\n",
		len(corpus.Positives), len(corpus.Negatives), corpus.Imbalance())

	if *saveModel != "" {
		fmt.Fprintln(os.Stderr, "training headline model for snapshot...")
		snap, err := experiments.TrainHeadlineModel(corpus, *seed, experiments.PipelineConfig{})
		if err != nil {
			log.Fatal(err)
		}
		if err := ml.SaveModelSnapshot(*saveModel, snap); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote model snapshot %s (%d rounds, %d features)\n",
			*saveModel, snap.Model.Rounds(), len(snap.Vocab))
	}
	if *modelOnly {
		return
	}

	fmt.Fprintln(os.Stderr, "running Table 3 sweep...")
	rows3, err := experiments.Table3(corpus, experiments.Table3Config{
		TopK: topk, Folds: *folds, Seed: *seed, MaxSamples: *maxSamples,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.RenderTable3(rows3))
	best := experiments.BestRow(rows3)
	fmt.Printf("best: %s, %s features, top-%d → TP %.1f%%, FP %.1f%%\n\n",
		best.Classifier, best.FeatureSet, best.NumFeatures,
		100*best.TPRate, 100*best.FPRate)

	fmt.Fprintln(os.Stderr, "running signature-baseline comparison...")
	base, err := experiments.CompareBaselines(corpus, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(base.Render())

	fmt.Fprintln(os.Stderr, "running live out-of-sample test...")
	live, err := lab.RunLive(context.Background(), experiments.LiveConfig{})
	if err != nil {
		log.Fatal(err)
	}
	// Ranks are paper-scale (effective), so the training cut is always
	// the top-5K regardless of world scale.
	res, err := experiments.LiveModelTest(corpus, live.Scripts, 5000, *seed, experiments.PipelineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())
}
