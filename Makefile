GO ?= go

.PHONY: build test vet fmt-check race verify fault-check bench bench-smoke bench-test fuzz-smoke serve-smoke chaos-smoke chaos-smoke-short fleet-smoke fleet-smoke-short brownout-smoke brownout-smoke-short

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would change any file: it lists them.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# verify is the full pre-merge gate: compile, vet, gofmt, plain tests, the race
# detector over the whole tree (the crawl engine is heavily concurrent —
# breaker, journal, and metrics are all shared state), a 1-iteration
# smoke run of the replay benchmarks so a broken bench pipeline fails the
# gate instead of the nightly, an end-to-end smoke of the serving stack
# (snapshots → adwars-serve → adwars-loadgen with a hot reload mid-fire
# and a graceful drain), a shortened chaos run (every fault class
# injected, hostile load, corrupt-snapshot reload mid-fire), a
# shortened fleet run (3 replicas behind adwars-gateway with a mid-load
# SIGKILL/restart and a canary-rollback rollout via adwars-ctl), a
# shortened brownout run (two starved governed replicas overdriven until
# the degradation ladder climbs, then proven to recover without flapping),
# the benchmark module's own tests (bench/ is a separate module, so
# `go test ./...` at the root does not reach them), and ten seconds of the
# matcher's differential fuzz.
verify: build vet fmt-check test race bench-smoke bench-test fuzz-smoke serve-smoke chaos-smoke-short fleet-smoke-short brownout-smoke-short

# bench records the full performance profile: one run regenerates all
# five BENCH_*.json reports in the repo root.
#  - BENCH_replay.json: match and list compile/load microbenchmarks from
#    internal/abp plus the full-replay benchmarks from the repo root.
#    replay_speedup_indexed_vs_linear is the acceptance criterion for the
#    indexed match path (≥ 3x over the linear scan);
#    match_automaton_p50_ns (< 1000) with match_nomatch_allocs_per_op
#    (= 0) gate the compiled-automaton hot path, and
#    list_load_speedup_vs_compile is the snapshot compilation win.
#  - BENCH_ml.json: §5 detection-pipeline profile — extraction,
#    selection, and train+CV benchmarks from the ml, features, and
#    experiments packages. ml_speedup_cached_vs_sequential is the
#    acceptance criterion for the kernel-cached parallel pipeline (≥ 2x
#    over the uncached sequential reference).
#  - BENCH_serve.json: single-request serving latency quantiles plus the
#    usage/compaction profile — serve_match_allocs (≤ 8 gate on the
#    pooled /v1/match handler), usage_overhead_p99_ns (counter-on minus
#    counter-off tail, held at zero by the sharded banks),
#    compact_hot_coverage (≥ 0.95 gate) and compact_working_set_bytes
#    (tiered hot automaton vs compact_flat_set_bytes untiered) — and the
#    decision-analytics profile: analytics_overhead_p99_ns
#    (analytics-on minus analytics-off tail, held at zero by the
#    lock-free rings), analytics_drop_rate (0.0 = consumer kept up),
#    analytics_agg_bytes (bounded aggregator footprint), and
#    serve_match_analytics_allocs (same ≤ 8 gate with logging on).
#  - BENCH_chaos.json / BENCH_fleet.json: the live fault-injection,
#    brownout, and fleet smoke runs (chaos-smoke / brownout-smoke /
#    fleet-smoke legs below; the brownout figures merge into
#    BENCH_chaos.json next to the chaos ones).
bench: chaos-smoke brownout-smoke fleet-smoke
	$(GO) test -run '^$$' -bench 'BenchmarkReplay' -benchmem . > /tmp/adwars-bench.txt
	$(GO) test -run '^$$' -bench 'BenchmarkList(Compile|Match|Load)|BenchmarkMatchingHTTPRules|BenchmarkGlobPathological|BenchmarkElementHiding' -benchmem ./internal/abp >> /tmp/adwars-bench.txt
	$(GO) run ./cmd/benchjson -out BENCH_replay.json < /tmp/adwars-bench.txt
	@cat BENCH_replay.json
	$(GO) test -run '^$$' -bench 'BenchmarkML' -benchmem ./internal/experiments > /tmp/adwars-bench-ml.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTrain|BenchmarkPredict|BenchmarkRBFKernel' -benchmem ./internal/ml >> /tmp/adwars-bench-ml.txt
	$(GO) test -run '^$$' -bench . -benchmem ./internal/features >> /tmp/adwars-bench-ml.txt
	$(GO) run ./cmd/benchjson -out BENCH_ml.json < /tmp/adwars-bench-ml.txt
	@cat BENCH_ml.json
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchmem ./internal/serve > /tmp/adwars-bench-serve.txt
	$(GO) run ./cmd/benchjson -out BENCH_serve.json /tmp/adwars-bench-serve.txt
	@cat BENCH_serve.json

# bench-smoke runs each headline benchmark exactly once and checks the
# JSON pipeline end to end (no timings recorded — the 1x numbers are
# noise). The ML leg runs -short so verify stays fast. The abp leg runs
# the hot-path gates for real: the median match must stay under a
# microsecond and the match paths must run at 0 allocs/op. The
# serve leg gates the pooled /v1/match handler at ≤ 8 allocs/op, usage
# counter recording at 0 allocs, usage-driven tier compaction at
# ≥ 95% hot coverage with a shrunken hot working set, and the decision
# analytics pipeline: the handler stays at ≤ 8 allocs/op with logging on
# and its p99 stays inside the zero-added-overhead envelope. The degrade
# leg gates the overload governor: the hot-path level read at 0 allocs,
# one ladder transition's cost bounded, and /v1/match still ≤ 8 allocs/op
# with the governor stamping every response.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkReplay(Indexed|LinearScan)$$' -benchtime 1x . | $(GO) run ./cmd/benchjson -out /tmp/adwars-bench-smoke.json
	$(GO) test -short -run '^$$' -bench 'BenchmarkMLTrainCV(Sequential|Cached)$$' -benchtime 1x ./internal/experiments | $(GO) run ./cmd/benchjson -out /tmp/adwars-bench-ml-smoke.json
	$(GO) test -count=1 -run 'TestMatchP50Gate|TestNoMatchZeroAllocs|TestMatchZeroAllocs|TestAppendHitsZeroAllocs' ./internal/abp
	$(GO) test -run '^$$' -bench 'BenchmarkListMatch(Automaton|NoMatch)$$|BenchmarkList(Compile|Load)$$' -benchtime 1x ./internal/abp | $(GO) run ./cmd/benchjson -out /tmp/adwars-bench-abp-smoke.json
	$(GO) test -count=1 -run 'TestUsageLoopCoverage|TestUsageRecordZeroAllocs' ./internal/abp
	$(GO) test -count=1 -run 'TestServeMatchAllocs$$|TestServeMatchAnalyticsAllocs|TestServeAnalyticsOverheadGate' ./internal/serve
	$(GO) test -run '^$$' -bench 'BenchmarkServeMatch(Handler|Tiered|Analytics|AnalyticsHandler)$$' -benchtime 1x ./internal/serve | $(GO) run ./cmd/benchjson -out /tmp/adwars-bench-serve-smoke.json
	$(GO) test -count=1 -run 'TestDegradeLevelZeroAllocs|TestDegradeTransitionCost' ./internal/degrade
	$(GO) test -count=1 -run 'TestServeMatchDegradeAllocs' ./internal/serve
	@echo "bench-smoke: pipeline ok"

# bench-test runs the tests of bench/, the whole-stack benchmark behind
# BENCHMARK.json: corpus determinism, the oracle, the run-must-fail checks
# and a short smoke of every workload (~30 s).
bench-test:
	cd bench && $(GO) test ./...

# fuzz-smoke runs the matcher's differential fuzz for ten seconds. With one
# match engine, FuzzMatchDifferential is the only proof that it equals the
# linear oracle on inputs nobody wrote down; `go test` alone runs its seeds.
# Then ten seconds of FuzzReadModelSnapshot: no bytes make a model load
# panic, and whatever loads can be scored (the scorer indexes by feature, so
# load-time validation is what keeps it in range). Its seeds are whole model
# files; minimizing one takes the fuzzer most of its default minute, hence
# the cap. Then ten seconds of FuzzParse: /v1/classify parses whatever it is
# sent, so no bytes may panic the parser or overflow its stack, the lexer
# must answer as the reference lexer does, no tree may be deeper than the
# bound, and what parses must survive Print and a second Parse. Its seeds
# include nests at the depth bound, hence the same cap.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMatchDifferential -fuzztime 10s ./internal/abp
	$(GO) test -run '^$$' -fuzz FuzzReadModelSnapshot -fuzztime 10s -fuzzminimizetime 1s ./internal/ml
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 1s ./internal/jsast

# serve-smoke is the end-to-end serving gate: ~2s of mixed load against a
# freshly snapshotted adwars-serve on an ephemeral port, with a SIGHUP
# hot reload mid-fire. Fails on any dropped request, any 5xx, a failed
# reload, or an unclean drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# chaos-smoke is the fault-injection gate: adwars-serve with every chaos
# fault class enabled (-chaos-* flags) under adwars-loadgen -chaos
# (malformed / oversized / slow-trickle / mid-body-abort requests), with
# a corrupted-snapshot reload injected mid-fire. Passes only if the
# request ledger balances (sent == 2xx + 4xx + 429 + recovered-panic 5xx
# + aborts), the corrupt reload is rejected while the old snapshot keeps
# serving, post-chaos answers are byte-identical to a fault-free control,
# and the server drains cleanly. Emits BENCH_chaos.json (shed-rate,
# recovered-panics, aborted-requests).
chaos-smoke:
	sh scripts/chaos_smoke.sh

# chaos-smoke-short is the verify-speed variant: same gates, shorter
# firing window, bench JSON parked in /tmp instead of the repo root.
chaos-smoke-short:
	CHAOS_SHORT=1 CHAOS_BENCH_OUT=/tmp/adwars-bench-chaos-smoke.json sh scripts/chaos_smoke.sh

# fleet-smoke is the multi-process fault-tolerance gate: three
# adwars-serve replicas behind adwars-gateway, a SIGKILL + restart of one
# replica mid-load (ledger must balance with zero 5xx and the gateway
# must report failovers), answers byte-identical to a single-node
# control, then the adwars-ctl control plane: a corrupt artifact refused
# locally, a sealed-garbage artifact rejected at the canary and rolled
# back fleet-wide, and a good v2 rollout converging on all replicas.
# Emits BENCH_fleet.json (fleet_rps, fleet_failovers, fleet_retries).
fleet-smoke:
	sh scripts/fleet_smoke.sh

# fleet-smoke-short is the verify-speed variant: same gates, shorter
# firing window, bench JSON parked in /tmp instead of the repo root.
fleet-smoke-short:
	FLEET_SHORT=1 FLEET_BENCH_OUT=/tmp/adwars-bench-fleet-smoke.json sh scripts/fleet_smoke.sh

# brownout-smoke is the overload-governor gate: two capacity-starved
# adwars-serve replicas with -degrade on behind adwars-gateway, overdriven
# far past capacity. Passes only if every replica's degradation ladder
# climbs to at least L2 (hot-tier-only matching) and steps back to L0
# with exactly one climb and one descent (hysteresis held, no flapping),
# the loadgen ledger balances with zero unexplained 5xx, some answers
# were really served hot-only, and a post-recovery probe is
# byte-identical to the unloaded control. Merges the brownout figures
# (brownout_hot_only_fraction, retry_budget_exhaustions,
# degrade_transition_p99_ns) into BENCH_chaos.json.
brownout-smoke:
	sh scripts/brownout_smoke.sh

# brownout-smoke-short is the verify-speed variant: same gates, shorter
# firing window, bench JSON parked in /tmp instead of the repo root.
brownout-smoke-short:
	BROWNOUT_SHORT=1 BROWNOUT_BENCH_OUT=/tmp/adwars-bench-brownout-smoke.json sh scripts/brownout_smoke.sh

# fault-check exercises the headline robustness claim end to end: the
# retrospective CLI at a 10% transient fault rate must emit byte-identical
# figures to a zero-fault run.
fault-check:
	$(GO) run ./cmd/adwars-wayback -scale 50 -stride 6 > /tmp/adwars-clean.txt 2>/dev/null
	$(GO) run ./cmd/adwars-wayback -scale 50 -stride 6 -fault-rate 0.1 > /tmp/adwars-faulty.txt 2>/dev/null
	diff /tmp/adwars-clean.txt /tmp/adwars-faulty.txt
	@echo "fault-check: figures identical under 10% faults"
