// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report. It is the back half of `make bench`: the
// benchmark runs pipe through it and BENCH_replay.json / BENCH_ml.json /
// BENCH_serve.json land in the repo root with ns/op, allocs, and any
// custom b.ReportMetric units (e.g. the serving benchmarks' p50-ns /
// p99-ns latency quantiles), plus the headline derived figures.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH_replay.json
//	benchjson -out BENCH_serve.json serve1.txt serve2.txt
//
// With positional arguments the inputs are read from files instead of
// stdin; a missing or unreadable input file is a warning, not a failure,
// so a partial benchmark run still produces a report from what exists.
//
// -merge seeds the report from an existing JSON file before parsing the
// inputs, so independent runs can accrete into one document (the chaos
// and brownout smokes both land in BENCH_chaos.json). Benchmarks are
// deduplicated by name with the newest occurrence winning, and every
// derived figure is recomputed over the merged set.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the Benchmark prefix and the -GOMAXPROCS
	// suffix stripped ("BenchmarkReplayIndexed-8" → "ReplayIndexed").
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in (from the preceding pkg: line).
	Pkg         string  `json:"pkg,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric values by unit (e.g. "p50-ns").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full JSON document.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
	// ReplaySpeedupIndexedVsLinear is ns/op(ReplayLinearScan) divided by
	// ns/op(ReplayIndexed) — the acceptance criterion for the indexed
	// replay (must be ≥ 3 on a full benchmark run).
	ReplaySpeedupIndexedVsLinear float64 `json:"replay_speedup_indexed_vs_linear,omitempty"`
	// MLSpeedupCachedVsSequential is ns/op(MLTrainCVSequential) divided by
	// ns/op(MLTrainCVCached) — the end-to-end train+CV win of the
	// kernel-cached parallel pipeline over the uncached sequential
	// reference (must be ≥ 2 on a full benchmark run).
	MLSpeedupCachedVsSequential float64 `json:"ml_speedup_cached_vs_sequential,omitempty"`
	// MatchAutomatonP50Ns is the median single-request List.MatchRequest
	// latency through the compiled automaton (ListMatchAutomaton's p50-ns
	// metric) — the acceptance gate is < 1000 ns with 0 allocs/op.
	MatchAutomatonP50Ns float64 `json:"match_automaton_p50_ns,omitempty"`
	// MatchNoMatchAllocsPerOp is allocs/op on the pure-miss match path
	// (ListMatchNoMatch) — must be 0: the common case in production since
	// the overwhelming majority of rules never fire. A pointer so the
	// meaningful zero is emitted when the benchmark ran but the field
	// disappears from reports that never measured it.
	MatchNoMatchAllocsPerOp *float64 `json:"match_nomatch_allocs_per_op,omitempty"`
	// ListLoadSpeedupVsCompile is ns/op(ListCompile) divided by
	// ns/op(ListLoad): how much faster attaching a serialized automaton is
	// than rebuilding it. The Large variant is the same ratio at 4× the
	// rules — it should grow with list size, since load cost is near-flat.
	ListLoadSpeedupVsCompile      float64 `json:"list_load_speedup_vs_compile,omitempty"`
	ListLoadSpeedupVsCompileLarge float64 `json:"list_load_speedup_vs_compile_large,omitempty"`
	// ServeMatchP50Ns / ServeMatchP99Ns are the single-request /v1/match
	// latency quantiles from the serving benchmark's custom metrics.
	ServeMatchP50Ns float64 `json:"serve_match_p50_ns,omitempty"`
	ServeMatchP99Ns float64 `json:"serve_match_p99_ns,omitempty"`
	// ServeMatchAllocs is allocs/op of the /v1/match handler itself
	// (ServeMatchHandler) — the pooled hot path's acceptance gate is ≤ 8,
	// enforced by TestServeMatchAllocs.
	ServeMatchAllocs float64 `json:"serve_match_allocs,omitempty"`
	// UsageOverheadP99Ns is p99(ServeMatch) − p99(ServeMatchUsageOff):
	// the tail cost of per-rule usage recording, which the sharded
	// counter design holds at zero (any residual is run-to-run noise).
	UsageOverheadP99Ns *float64 `json:"usage_overhead_p99_ns,omitempty"`
	// AnalyticsOverheadP99Ns is p99(ServeMatchAnalytics) − p99(ServeMatch):
	// the tail cost of recording every decision into the analytics rings,
	// which the lock-free design holds at zero (any residual is
	// run-to-run noise). A pointer so the headline zero survives omitempty.
	AnalyticsOverheadP99Ns *float64 `json:"analytics_overhead_p99_ns,omitempty"`
	// AnalyticsDropRate is the fraction of recorded decisions dropped at
	// full rings during the analytics benchmark — 0.0 means the consumer
	// kept up with an unthrottled producer. A pointer for the same reason.
	AnalyticsDropRate *float64 `json:"analytics_drop_rate,omitempty"`
	// AnalyticsAggBytes is the aggregator's bounded-memory footprint after
	// absorbing the whole benchmark run.
	AnalyticsAggBytes float64 `json:"analytics_agg_bytes,omitempty"`
	// ServeMatchAnalyticsAllocs is allocs/op of the /v1/match handler with
	// analytics recording every verdict (ServeMatchAnalyticsHandler) — the
	// gate is the same ≤ 8 as the analytics-off path, enforced by
	// TestServeMatchAnalyticsAllocs: decision logging allocates nothing.
	ServeMatchAnalyticsAllocs float64 `json:"serve_match_analytics_allocs,omitempty"`
	// CompactHotCoverage is the fraction of match verdicts a
	// usage-compacted tiered list answers from its hot tier
	// (ServeMatchTiered's hot-coverage metric) — acceptance gate ≥ 0.95.
	CompactHotCoverage float64 `json:"compact_hot_coverage,omitempty"`
	// CompactWorkingSetBytes is the hot-tier automaton size after
	// compaction; CompactFlatSetBytes is the untiered automaton it
	// replaced on the fast path.
	CompactWorkingSetBytes float64 `json:"compact_working_set_bytes,omitempty"`
	CompactFlatSetBytes    float64 `json:"compact_flat_set_bytes,omitempty"`
	// ServeMatchRPS is the sequential single-worker /v1/match throughput
	// (1e9 / ns_per_op of ServeMatch); concurrent throughput scales with
	// the worker pool and is measured live by adwars-loadgen.
	ServeMatchRPS float64 `json:"serve_match_rps,omitempty"`
	// ChaosShedRate is the fraction of chaos-mode requests shed as 429
	// (from adwars-loadgen -chaos -bench via the ChaosLoadgen line).
	ChaosShedRate float64 `json:"chaos_shed_rate,omitempty"`
	// ChaosRecoveredPanics is the server's panics_recovered counter after
	// the chaos run — every injected panic must land here, none may kill
	// the process. -1 means the loadgen could not read /debug/vars.
	ChaosRecoveredPanics float64 `json:"chaos_recovered_panics,omitempty"`
	// ChaosAbortedRequests is how many chaos-mode requests died at the
	// transport layer (injected closes plus client-side mid-body aborts) —
	// all individually accounted for by the loadgen's ledger check.
	ChaosAbortedRequests float64 `json:"chaos_aborted_requests,omitempty"`
	// FleetRPS is the client-visible throughput through adwars-gateway
	// (1e9 / ns_per_op of the FleetLoadgen line) while replicas were being
	// killed and restarted under it.
	FleetRPS float64 `json:"fleet_rps,omitempty"`
	// FleetFailovers / FleetRetries / FleetHedges are the gateway's own
	// counters after the run: how many requests survived a replica failure
	// by moving to another one, how many extra attempts that took, and how
	// many hedge chains fired. -1 means the loadgen could not read the
	// gateway's /debug/vars.
	FleetFailovers float64 `json:"fleet_failovers,omitempty"`
	FleetRetries   float64 `json:"fleet_retries,omitempty"`
	FleetHedges    float64 `json:"fleet_hedges,omitempty"`
	// FleetReplicasSeen is how many distinct replica identities answered
	// through the gateway during the run.
	FleetReplicasSeen float64 `json:"fleet_replicas_seen,omitempty"`
	// BrownoutHotOnlyFraction is the share of brownout-smoke answers
	// served at L2+ (hot-tier-only matching) — proof the ladder actually
	// browned the run out rather than shedding or serving fully.
	BrownoutHotOnlyFraction float64 `json:"brownout_hot_only_fraction,omitempty"`
	// RetryBudgetExhaustions is the gateway's count of retry/hedge
	// attempts suppressed by an empty per-replica token budget during the
	// brownout run. A pointer so the meaningful zero (budgets never ran
	// dry) survives omitempty; -1 means /debug/vars was unreadable.
	RetryBudgetExhaustions *float64 `json:"retry_budget_exhaustions,omitempty"`
	// DegradeTransitionP99Ns is the worst replica's p99 cost of one
	// governor level transition (ladder step + hook dispatch) — the
	// bench-smoke gate bounds it, since transitions happen on the ticker
	// goroutine but publish to every hot-path reader.
	DegradeTransitionP99Ns float64 `json:"degrade_transition_p99_ns,omitempty"`
}

func main() {
	out := flag.String("out", "", "write JSON here instead of stdout")
	merge := flag.String("merge", "", "seed the report from this existing JSON file before parsing inputs")
	flag.Parse()

	rep := &Report{}
	if *merge != "" {
		if data, err := os.ReadFile(*merge); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: warning: -merge %s: %v (starting fresh)\n", *merge, err)
		} else if err := json.Unmarshal(data, rep); err != nil {
			log.Fatalf("-merge %s: %v", *merge, err)
		}
	}
	if flag.NArg() == 0 {
		if err := parse(bufio.NewScanner(os.Stdin), rep); err != nil {
			log.Fatal(err)
		}
	} else {
		parsed := 0
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: warning: skipping %s: %v\n", path, err)
				continue
			}
			err = parse(bufio.NewScanner(f), rep)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: warning: skipping %s: %v\n", path, err)
				continue
			}
			parsed++
		}
		if parsed == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: warning: no readable inputs; emitting empty report")
		}
	}
	rep.Benchmarks = dedupe(rep.Benchmarks)
	derive(rep)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// parse appends the benchmark lines of one input stream to rep.
func parse(sc *bufio.Scanner, rep *Report) error {
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			continue
		}
		b.Pkg = pkg
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return sc.Err()
}

// dedupe keeps the newest occurrence of each benchmark name (merged
// reports come first, fresh parses last), preserving the order in which
// the surviving entries last appeared.
func dedupe(in []Benchmark) []Benchmark {
	last := make(map[string]int, len(in))
	for i, b := range in {
		last[b.Name] = i
	}
	out := in[:0]
	for i, b := range in {
		if last[b.Name] == i {
			out = append(out, b)
		}
	}
	return out
}

// derive computes the headline cross-benchmark figures.
func derive(rep *Report) {
	var indexed, linear, mlSeq, mlCached float64
	var compile, load, compileLarge, loadLarge float64
	usageOffP99 := -1.0
	analyticsP99 := -1.0
	for _, b := range rep.Benchmarks {
		switch b.Name {
		case "ReplayIndexed":
			indexed = b.NsPerOp
		case "ReplayLinearScan":
			linear = b.NsPerOp
		case "MLTrainCVSequential":
			mlSeq = b.NsPerOp
		case "MLTrainCVCached":
			mlCached = b.NsPerOp
		case "ListMatchAutomaton":
			rep.MatchAutomatonP50Ns = b.Metrics["p50-ns"]
		case "ListMatchNoMatch":
			allocs := b.AllocsPerOp
			rep.MatchNoMatchAllocsPerOp = &allocs
		case "ListCompile":
			compile = b.NsPerOp
		case "ListLoad":
			load = b.NsPerOp
		case "ListCompileLarge":
			compileLarge = b.NsPerOp
		case "ListLoadLarge":
			loadLarge = b.NsPerOp
		case "ServeMatch":
			rep.ServeMatchP50Ns = b.Metrics["p50-ns"]
			rep.ServeMatchP99Ns = b.Metrics["p99-ns"]
			if b.NsPerOp > 0 {
				rep.ServeMatchRPS = 1e9 / b.NsPerOp
			}
		case "ServeMatchHandler":
			rep.ServeMatchAllocs = b.AllocsPerOp
		case "ServeMatchUsageOff":
			usageOffP99 = b.Metrics["p99-ns"]
		case "ServeMatchAnalytics":
			analyticsP99 = b.Metrics["p99-ns"]
			if dr, ok := b.Metrics["drop-rate"]; ok {
				rep.AnalyticsDropRate = &dr
			}
			rep.AnalyticsAggBytes = b.Metrics["agg-bytes"]
		case "ServeMatchAnalyticsHandler":
			rep.ServeMatchAnalyticsAllocs = b.AllocsPerOp
		case "ServeMatchTiered":
			rep.CompactHotCoverage = b.Metrics["hot-coverage"]
			rep.CompactWorkingSetBytes = b.Metrics["hot-set-bytes"]
			rep.CompactFlatSetBytes = b.Metrics["flat-set-bytes"]
		case "ChaosLoadgen":
			rep.ChaosShedRate = b.Metrics["shed-rate"]
			rep.ChaosRecoveredPanics = b.Metrics["recovered-panics"]
			rep.ChaosAbortedRequests = b.Metrics["aborted-requests"]
		case "FleetLoadgen":
			if b.NsPerOp > 0 {
				rep.FleetRPS = 1e9 / b.NsPerOp
			}
			rep.FleetFailovers = b.Metrics["failovers"]
			rep.FleetRetries = b.Metrics["retries"]
			rep.FleetHedges = b.Metrics["hedges"]
			rep.FleetReplicasSeen = b.Metrics["replicas-seen"]
		case "BrownoutLoadgen":
			rep.BrownoutHotOnlyFraction = b.Metrics["hot-only-fraction"]
			if v, ok := b.Metrics["retry-budget-exhaustions"]; ok {
				rep.RetryBudgetExhaustions = &v
			}
			rep.DegradeTransitionP99Ns = b.Metrics["degrade-transition-p99-ns"]
		}
	}
	if indexed > 0 && linear > 0 {
		rep.ReplaySpeedupIndexedVsLinear = linear / indexed
	}
	if mlSeq > 0 && mlCached > 0 {
		rep.MLSpeedupCachedVsSequential = mlSeq / mlCached
	}
	if compile > 0 && load > 0 {
		rep.ListLoadSpeedupVsCompile = compile / load
	}
	if compileLarge > 0 && loadLarge > 0 {
		rep.ListLoadSpeedupVsCompileLarge = compileLarge / loadLarge
	}
	if usageOffP99 >= 0 && rep.ServeMatchP99Ns > 0 {
		// A pointer so the headline zero (counters cost nothing at the
		// tail) survives omitempty; negative residuals are noise.
		overhead := rep.ServeMatchP99Ns - usageOffP99
		rep.UsageOverheadP99Ns = &overhead
	}
	if analyticsP99 >= 0 && rep.ServeMatchP99Ns > 0 {
		overhead := analyticsP99 - rep.ServeMatchP99Ns
		rep.AnalyticsOverheadP99Ns = &overhead
	}
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8  123  4567 ns/op  89 B/op  10 allocs/op  678 p50-ns
//
// Unknown units (from b.ReportMetric) are collected into Metrics. Lines
// that do not carry an ns/op measurement (e.g. "BenchmarkX ... FAIL")
// are skipped.
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
			seenNs = true
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, seenNs
}
