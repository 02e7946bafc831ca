package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"adwars/internal/experiments"
	"adwars/internal/simworld"
)

// pipelineSeed is the world every report run is made on, whatever the run's
// seed. The job's cost is chaotic in the world: AdaBoost stops after 1 to 9
// rounds depending on the corpus, and at a tenth of paper scale seeds 1 to
// 10 take from 5 s to 17 s, so a world per seed would turn wall time into a
// lottery no code change could be read against. This is the one workload
// whose inputs the seed does not vary.
//
// pipelineScale divides paper scale. At 40 a run takes about 1.4 s and six
// fit the window, so the fastest can be reported; at 10 (adwars-report's
// default) one 9 s run fits and its time follows the machine's slow spells:
// over eight runs each, range ÷ median was 0.29 at 10, 0.22 at 20, 0.11 at
// 40. The stages keep their order of cost (Table 3 ≈ 65 %, crawl ≈ 25 %).
const (
	pipelineSeed  = 1
	pipelineScale = 40
)

// pipelineStages names the public calls of one report run, in order, with
// the per-layer metric each is reported under; what is left of the run
// (rendering, hashing) is pipeline.unattributed_ms.
var pipelineStages = []string{
	"experiments.lab_ms", "wayback.crawl_ms", "experiments.replay_ms",
	"experiments.live_ms", "experiments.table3_ms",
	"experiments.headline_train_ms", "experiments.live_test_ms",
}

// report is one run of the paper's §4–§5 reproduction as adwars-report
// runs it, at 1/scale of paper size: build the lab, crawl the archive,
// replay the crawl against the historic lists, crawl the live web, sweep
// Table 3, train the headline model, test it on the live scripts. It
// returns the time of each stage and a digest of the rendered Fig 5/6/7,
// Table 3 and live-test text.
func report(ctx context.Context, seed int64, scale int) (took []time.Duration, digest string, err error) {
	marks := []time.Time{time.Now()}
	mark := func() { marks = append(marks, time.Now()) }

	lab := experiments.NewLab(simworld.Scaled(seed, scale))
	mark()
	run, err := lab.PrepareReplay(ctx, experiments.RetroConfig{})
	if err != nil {
		return nil, "", fmt.Errorf("crawl: %w", err)
	}
	mark()
	retro := run.Run(1, false)
	mark()
	live, err := lab.RunLive(ctx, experiments.LiveConfig{})
	if err != nil {
		return nil, "", fmt.Errorf("live crawl: %w", err)
	}
	mark()
	corpus := &experiments.Corpus{Positives: retro.CorpusPos, Negatives: retro.CorpusNeg}
	rows, err := experiments.Table3(corpus, experiments.Table3Config{
		TopK: []int{100, 1000, 10000}, Folds: 10, Seed: seed, MaxSamples: 1650,
	})
	if err != nil {
		return nil, "", fmt.Errorf("table 3: %w", err)
	}
	mark()
	if _, err := experiments.TrainHeadlineModel(corpus, seed, experiments.PipelineConfig{}); err != nil {
		return nil, "", fmt.Errorf("headline model: %w", err)
	}
	mark()
	test, err := experiments.LiveModelTest(corpus, live.Scripts, int(5000*lab.Scale()), seed, experiments.PipelineConfig{})
	if err != nil {
		return nil, "", fmt.Errorf("live model test: %w", err)
	}
	mark()

	// 3 feature sets × 3 budgets × 2 classifiers, every rate a rate.
	if len(rows) != 18 || test.Scripts == 0 {
		return nil, "", fmt.Errorf("report shape: %d Table 3 rows, %d live scripts tested", len(rows), test.Scripts)
	}
	for _, r := range rows {
		if r.TPRate < 0 || r.TPRate > 1 || r.FPRate < 0 || r.FPRate > 1 {
			return nil, "", fmt.Errorf("report shape: Table 3 row %+v", r)
		}
	}
	h := sha256.New()
	fmt.Fprint(h, retro.RenderFig5(), retro.RenderFig6(), lab.Fig7(0).Render(),
		experiments.RenderTable3(rows), test.Render())
	mark()
	took = make([]time.Duration, len(marks)-1)
	for i := range took {
		took[i] = marks[i+1].Sub(marks[i])
	}
	return took, fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}

// runPaperPipeline repeats the report for the length of the window — once
// at least, and again only while another run is expected to fit. Set-up
// builds the lab, the job's only input that outlives a stage, so that
// setup_s and heap_mb mean here what they mean elsewhere; every repetition
// still builds its own, as a fresh adwars-report would.
func runPaperPipeline(ctx context.Context, e *env) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	var lab *experiments.Lab
	if _, err := timedSetups(e, res, func(string) (*rig, error) {
		lab = experiments.NewLab(simworld.Scaled(pipelineSeed, pipelineScale))
		return &rig{}, nil
	}); err != nil {
		return nil, err
	}
	runtime.KeepAlive(lab) // held through the heap_mb reading, dropped now

	var total, cpu []float64
	stages := make([][]float64, len(pipelineStages)+1)
	first := ""
	if e.Sabotage {
		first = "sabotaged"
	}
	for start := time.Now(); res.Failed < 3 && (res.Attempted == 0 || time.Since(start).Seconds()+median(total) <= e.Seconds); {
		res.Attempted++
		t0, c0 := time.Now(), cpuTime()
		took, digest, err := report(ctx, pipelineSeed, pipelineScale)
		total = append(total, time.Since(t0).Seconds()) // a failed run still paces the loop
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		if err == nil && first == "" {
			first = digest
			res.note("output digest %s", digest)
		}
		if err == nil && digest != first {
			err = fmt.Errorf("output digest %s differs from the first run's %s", digest, first)
		}
		if err != nil {
			res.Failed++
			res.note("run %d: %v", res.Attempted, err)
			continue
		}
		for i, d := range took {
			stages[i] = append(stages[i], d.Seconds()*1e3)
		}
	}
	if res.Failed > 0 {
		return res, nil
	}
	opMetrics(res, e.Trace, total, cpu)
	if !e.Trace {
		return res, nil
	}
	for i, name := range pipelineStages {
		res.set(name, steady(stages[i]), "ms")
	}
	res.set("pipeline.unattributed_ms", steady(stages[len(pipelineStages)]), "ms")
	return res, nil
}
