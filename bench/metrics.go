package main

import (
	"math"
	"sort"
)

// metricDef mirrors one entry of BENCHMARK.json; smoke_test.go holds the
// two in step.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what a user of the system sees. Every workload emits every
// one: an "op" is a request on the serving workloads, one update cycle on
// snapshot_cycle and one report run on paper_pipeline.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"latency_us", "us", "lower"},
}

// perLayer is the traced run's table. The prefix is the module measured;
// loopback is net/http plus the socket, process the Go runtime. A layer a
// workload does not cross reads 0 there.
var perLayer = []metricDef{
	{"abp.probe_ns", "ns", "lower"},
	{"abp.probe_allocs", "count", "lower"},
	{"abp.probe_flat_ns", "ns", "lower"},
	{"abp.hits_per_req", "count", "lower"},
	{"abp.match_frac", "ratio", "lower"},
	{"abp.hot_conclusive_frac", "ratio", "higher"},
	{"abp.hot_bytes", "B", "lower"},
	{"abp.cold_bytes", "B", "lower"},
	{"abp.parse_ms", "ms", "lower"},
	{"abp.compile_ms", "ms", "lower"},
	{"abp.tier_compile_ms", "ms", "lower"},
	{"abp.snapshot_write_ms", "ms", "lower"},
	{"abp.snapshot_load_ms", "ms", "lower"},
	{"abp.snapshot_bytes", "B", "lower"},
	{"serve.handler_ns", "ns", "lower"},
	{"serve.handler_allocs", "count", "lower"},
	{"serve.envelope_ns", "ns", "lower"},
	{"serve.admitted_mean_ns", "ns", "lower"},
	{"serve.shed_frac", "ratio", "lower"},
	{"serve.errors", "count", "lower"},
	{"serve.batch_item_ns", "ns", "lower"},
	{"serve.batch_item_allocs", "count", "lower"},
	{"serve.reload_ms", "ms", "lower"},
	{"serve.verify_ms", "ms", "lower"},
	{"serve.classify_handler_us", "us", "lower"},
	{"serve.classify_envelope_us", "us", "lower"},
	{"loopback.self_ns", "ns", "lower"},
	{"loopback.allocs", "count", "lower"},
	{"fleet.hop_ns", "ns", "lower"},
	{"fleet.hop_allocs", "count", "lower"},
	{"fleet.retries", "count", "lower"},
	{"fleet.hedges", "count", "lower"},
	{"fleet.failovers", "count", "lower"},
	{"fleet.no_backend", "count", "lower"},
	{"fleet.backend_share_max", "ratio", "lower"},
	{"analytics.record_ns", "ns", "lower"},
	{"analytics.drop_frac", "ratio", "lower"},
	{"analytics.agg_bytes", "B", "lower"},
	{"degrade.level_max", "count", "lower"},
	{"degrade.transitions", "count", "lower"},
	{"features.extract_us", "us", "lower"},
	{"features.script_bytes", "B", "lower"},
	{"jsast.parse_us", "us", "lower"},
	{"ml.score_us", "us", "lower"},
	{"experiments.lab_ms", "ms", "lower"},
	{"wayback.crawl_ms", "ms", "lower"},
	{"experiments.replay_ms", "ms", "lower"},
	{"experiments.live_ms", "ms", "lower"},
	{"experiments.table3_ms", "ms", "lower"},
	{"experiments.headline_train_ms", "ms", "lower"},
	{"experiments.live_test_ms", "ms", "lower"},
	{"pipeline.unattributed_ms", "ms", "lower"},
	{"process.cpu_us_per_req", "us", "lower"},
	{"process.allocs_per_req", "count", "lower"},
	{"process.bytes_per_req", "B", "lower"},
	{"process.gc_cpu_frac", "ratio", "lower"},
	{"client.samples", "count", "higher"},
	{"client.rps", "1/s", "higher"},
	{"client.p99_us", "us", "lower"},
	{"trace.roundtrip_ns", "ns", "lower"},
	{"trace.unattributed_ns", "ns", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// ---- order statistics ----

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	s := sorted(xs)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, the quartiles taken the way Python's
// statistics.quantiles(values, n=4) takes them (exclusive method) — the
// spread the driver accepts or refuses a metric on.
func quartileSpread(xs []float64) float64 {
	s := sorted(xs)
	m := median(s)
	if len(s) < 2 || m == 0 {
		return 0
	}
	q := func(i int) float64 {
		n, ld := 4, len(s)
		j := i * (ld + 1) / n
		j = max(1, min(j, ld-1))
		delta := i*(ld+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// steady summarises the wall times of operations run one after another (or
// of blocks of calls) as the one a twentieth of the way in from the fast
// end, by nearest rank — with fewer than twenty, the fastest. On cores shared
// with other tenants a fixed piece of work swings by a quarter from one
// second to the next, always towards slower: over six 10 s stretches the
// median of 50 ms pieces moved by 22 %, their 5th percentile by 2 %. A
// change to the program moves every operation alike, so the fast end shows
// it as well as the middle does, and repeats where the middle does not.
func steady(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/20]
}

// percentile by nearest rank over sorted values; with fewer than a hundred
// samples p99 is the largest.
func percentile(sortedXs []float64, p float64) float64 {
	if len(sortedXs) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sortedXs)))) - 1
	return sortedXs[max(0, min(i, len(sortedXs)-1))]
}
