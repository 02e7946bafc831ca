GO ?= go

.PHONY: build test vet fmt-check race verify loc fault-check bench-test fuzz-smoke serve-smoke chaos-smoke chaos-smoke-short fleet-smoke fleet-smoke-short brownout-smoke brownout-smoke-short

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

# verify is the full pre-merge gate: compile, vet, gofmt, plain tests, the
# race detector over the whole tree (the crawl engine is heavily concurrent
# — breaker, journal, and metrics are all shared state), the benchmark
# module's own tests (bench/ is a separate module, so `go test ./...` at the
# root does not reach them), ten seconds of each fuzz target, an end-to-end
# smoke of the serving stack (snapshots → adwars-serve → adwars-loadgen with
# a hot reload mid-fire and a graceful drain), a shortened chaos run (every
# fault class injected, hostile load, corrupt-snapshot reload mid-fire), a
# shortened fleet run (3 replicas behind adwars-gateway with a mid-load
# SIGKILL/restart and a canary-rollback rollout via adwars-ctl), and a
# shortened brownout run (two starved governed replicas overdriven until
# the degradation ladder climbs, then proven to recover without flapping).
# The hot-path gates (0 allocs/op on the match paths, the sub-microsecond
# median match, the handlers' allocation budgets) are plain tests and run
# under `test`. Performance is measured by `bash bench/run.sh`
# (BENCHMARK.json, bench/README.md), not here.
verify: build vet fmt-check test race bench-test fuzz-smoke serve-smoke chaos-smoke-short fleet-smoke-short brownout-smoke-short

# loc prints the ROADMAP's code-size measure: non-test Go lines outside the
# benchmark module.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l

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
# include nests at the depth bound, hence the same cap. Then ten seconds of
# FuzzReadListsSnapshot: a snapshot cut at or inside any section, or with its
# sections reordered, repeated or renamed, never panics the loader, and
# whatever loads answers as the linear scan over its own rules does. Its
# seeds are whole snapshot files, hence the same cap.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMatchDifferential -fuzztime 10s ./internal/abp
	$(GO) test -run '^$$' -fuzz FuzzReadModelSnapshot -fuzztime 10s -fuzzminimizetime 1s ./internal/ml
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 1s ./internal/jsast
	$(GO) test -run '^$$' -fuzz FuzzReadListsSnapshot -fuzztime 10s -fuzzminimizetime 1s ./internal/abp

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
# and the server drains cleanly.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# chaos-smoke-short is the verify-speed variant: same gates, shorter
# firing window.
chaos-smoke-short:
	CHAOS_SHORT=1 sh scripts/chaos_smoke.sh

# fleet-smoke is the multi-process fault-tolerance gate: three
# adwars-serve replicas behind adwars-gateway, a SIGKILL + restart of one
# replica mid-load (ledger must balance with zero 5xx and the gateway
# must report failovers), answers byte-identical to a single-node
# control, then the adwars-ctl control plane: a corrupt artifact refused
# locally, a sealed-garbage artifact rejected at the canary and rolled
# back fleet-wide, and a good v2 rollout converging on all replicas.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# fleet-smoke-short is the verify-speed variant: same gates, shorter
# firing window.
fleet-smoke-short:
	FLEET_SHORT=1 sh scripts/fleet_smoke.sh

# brownout-smoke is the overload-governor gate: two capacity-starved
# adwars-serve replicas with -degrade on behind adwars-gateway, overdriven
# far past capacity. Passes only if every replica's degradation ladder
# climbs to at least L2 (hot-tier-only matching) and steps back to L0
# with exactly one climb and one descent (hysteresis held, no flapping),
# the loadgen ledger balances with zero unexplained 5xx, some answers
# were really served hot-only, and a post-recovery probe is
# byte-identical to the unloaded control.
brownout-smoke:
	sh scripts/brownout_smoke.sh

# brownout-smoke-short is the verify-speed variant: same gates, shorter
# firing window.
brownout-smoke-short:
	BROWNOUT_SHORT=1 sh scripts/brownout_smoke.sh

# fault-check exercises the headline robustness claim end to end: the
# retrospective CLI at a 10% transient fault rate must emit byte-identical
# figures to a zero-fault run.
fault-check:
	$(GO) run ./cmd/adwars-wayback -scale 50 -stride 6 > /tmp/adwars-clean.txt 2>/dev/null
	$(GO) run ./cmd/adwars-wayback -scale 50 -stride 6 -fault-rate 0.1 > /tmp/adwars-faulty.txt 2>/dev/null
	diff /tmp/adwars-clean.txt /tmp/adwars-faulty.txt
	@echo "fault-check: figures identical under 10% faults"
