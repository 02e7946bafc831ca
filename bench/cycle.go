package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"adwars/internal/abp"
	"adwars/internal/serve"
)

// cycleProbes is how many pool requests verify each reloaded snapshot.
const cycleProbes = 64

// cycleStage names the public calls of one update cycle, in order, with the
// per-layer metric each is reported under.
var cycleStages = []string{
	"abp.parse_ms", "abp.compile_ms", "abp.tier_compile_ms",
	"abp.snapshot_write_ms", "serve.reload_ms", "serve.verify_ms",
}

// updater is the snapshot_cycle workload's state: the list texts as
// published, the fixed hot set, a server that reloads from path, and the
// replies cycle 0 got.
type updater struct {
	texts  []listText
	keep   [][]bool // per list, per ordinal: hot
	path   string
	label  string
	srv    *serve.Server
	bodies [][]byte
	first  [][]byte
}

// cycle is one list update the way the tools do it end to end: parse the
// published text, compile, tier by the usage-derived hot set, write the
// snapshot, have the server reload it, and ask the server a fixed set of
// questions whose answers must not have changed. It returns the time each
// stage took.
func (u *updater) cycle() ([]time.Duration, error) {
	marks := make([]time.Time, 0, len(cycleStages)+1)
	mark := func() { marks = append(marks, time.Now()) }
	mark()
	rules := make([][]*abp.Rule, len(u.texts))
	for i, t := range u.texts {
		var errs []error
		if rules[i], errs = abp.ParseList(t.Body); len(errs) > 0 {
			return nil, fmt.Errorf("list %q: %v", t.Name, errs[0])
		}
	}
	mark()
	lists := make([]*abp.List, len(u.texts))
	for i, t := range u.texts {
		lists[i] = abp.NewList(t.Name, rules[i])
	}
	mark()
	lists = compileTiered(lists, u.keep)
	mark()
	if err := abp.SaveListsSnapshotTiered(u.path, &abp.ListsSnapshot{Label: u.label, Lists: lists}); err != nil {
		return nil, err
	}
	mark()
	if err := u.srv.ReloadSnapshots(); err != nil {
		return nil, err
	}
	mark()
	var replies [][]byte
	for i, body := range u.bodies {
		status, reply := inProcess(u.srv.Handler(), matchPath, jsonType, body)
		switch {
		case status != 200:
			return nil, fmt.Errorf("probe %d: status %d: %.120s", i, status, reply)
		case u.first == nil:
			replies = append(replies, reply)
		case !bytes.Equal(reply, u.first[i]):
			return nil, fmt.Errorf("probe %d: reply %.120q differs from cycle 0's %.120q", i, reply, u.first[i])
		}
	}
	mark()
	if u.first == nil {
		u.first = replies
	}
	took := make([]time.Duration, len(cycleStages))
	for i := range took {
		took[i] = marks[i+1].Sub(marks[i])
	}
	return took, nil
}

// newUpdater renders the texts, derives the fixed hot set from a warm-up
// on the flat compile, and runs cycle 0, whose replies later cycles must
// reproduce byte for byte.
func newUpdater(e *env, dir string) (*updater, error) {
	texts, uni := paperLists(e.Seed)
	texts = append(texts, easyList(e.Seed, uni, e.EasyRules))
	flat, err := buildLists(texts)
	if err != nil {
		return nil, err
	}
	listed := listDomains(flat)
	u := &updater{
		texts: texts,
		path:  filepath.Join(dir, "lists.snap"),
		label: fmt.Sprintf("bench seed %d", e.Seed),
		keep:  firedInWarmup(flat, requestPool(e.Seed+1, uni, listed, e.TierWarmup)),
	}
	u.bodies = marshalPool(requestPool(e.Seed, uni, listed, cycleProbes))
	// Production-shaped, but never listening: this workload has no traffic.
	u.srv = serve.New(servingConfig(u.path, "", ""))
	if err := u.srv.AnalyticsError(); err != nil {
		return nil, err
	}
	if _, err := u.cycle(); err != nil {
		u.srv.CloseAnalytics()
		return nil, fmt.Errorf("cycle 0: %w", err)
	}
	return u, nil
}

func runSnapshotCycle(_ context.Context, e *env) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	var u *updater
	g, err := timedSetups(e, res, func(dir string) (*rig, error) {
		var err error
		if u, err = newUpdater(e, dir); err != nil {
			return nil, err
		}
		return &rig{closers: []func() error{u.srv.CloseAnalytics}}, nil
	})
	if err != nil {
		return nil, err
	}
	defer g.close()
	if e.Sabotage {
		u.first[0] = []byte(`{"sabotaged":`)
	}

	var total, cpu, loadMs []float64
	stages := make([][]float64, len(cycleStages))
	for start := time.Now(); time.Since(start) < secs(e.Seconds) || res.Attempted < 3; {
		res.Attempted++
		t0, c0 := time.Now(), cpuTime()
		took, err := u.cycle()
		if err != nil {
			res.Failed++
			res.note("cycle %d: %v", res.Attempted, err)
			continue
		}
		total = append(total, time.Since(t0).Seconds())
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		for i, d := range took {
			stages[i] = append(stages[i], d.Seconds()*1e3)
		}
		if e.Trace { // one more public call, outside the cycle's own time
			t := time.Now()
			if _, err := abp.LoadListsSnapshot(u.path); err != nil {
				res.invalidate("loading the snapshot back: %v", err)
			}
			loadMs = append(loadMs, time.Since(t).Seconds()*1e3)
		}
	}
	if len(total) == 0 {
		return res, nil
	}

	opMetrics(res, e.Trace, total, cpu)
	if !e.Trace {
		return res, nil
	}
	for i, name := range cycleStages {
		res.set(name, steady(stages[i]), "ms")
	}
	res.set("abp.snapshot_load_ms", steady(loadMs), "ms")
	if st, err := os.Stat(u.path); err == nil {
		res.set("abp.snapshot_bytes", float64(st.Size()), "B")
	}
	return res, nil
}

// opMetrics reports the end-to-end latency of a workload whose operations
// run one after another (each op's wall time in seconds in took) on an
// untraced run, and what the clientLayers of a serving workload would on a
// traced one.
func opMetrics(res *result, trace bool, took, cpu []float64) {
	if !trace {
		res.setSpread("latency_us", steady(took)*1e6, quartileSpread(took), "us")
		res.note("%d operations, one after another; median %.3fs, slowest %.3fs", len(took), median(took), sorted(took)[len(took)-1])
		return
	}
	wall, cpuSum := 0.0, 0.0
	for i := range took {
		wall += took[i]
		cpuSum += cpu[i]
	}
	res.set("client.samples", float64(len(took)), "count")
	res.set("client.rps", float64(len(took))/wall, "1/s")
	res.set("client.p99_us", percentile(sorted(took), 0.99)*1e6, "us")
	res.set("process.cpu_us_per_req", cpuSum/float64(len(took))*1e6, "us")
}
