GO ?= go

.PHONY: build test vet fmt-check race verify loc loc-check reach-check deps-check fidelity-check fault-check bench-test bench-smoke fuzz-smoke paper-check

# bench/ is a module of its own, so `go build ./...` and `go vet ./...` at
# the root do not reach it: build and vet name it, so that a change to an
# identifier the benchmark uses fails here in seconds and not thirty seconds
# into bench-test. (bench/ is one main package, which a bare `go build` would
# write out as bench/bench: hence -o /dev/null.)
build:
	$(GO) build ./...
	$(GO) build -C bench -o /dev/null ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

# fmt-check fails when gofmt would change any file: it lists them.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# verify is the full pre-merge gate: compile, vet, gofmt, plain tests, the
# crawl's figures under injected archive faults, the race detector over the
# whole tree (the crawl engine is heavily concurrent — its metrics are
# shared state; loadgen's gate table
# and the serving stack's scenario table are tested there too), the
# benchmark module's own tests (bench/ is a separate module, so `go test
# ./...` at the root does not reach them), one iteration of every
# in-package benchmark and ten seconds of each fuzz target. The serving
# scenarios (cmd/adwars-loadgen/scenario_test.go) run in-process under both
# `test` and `race`, and through the built binaries under `test`. The
# hot-path gates (0 allocs/op on the match paths, the sub-microsecond median
# match, the handlers' allocation budgets) are plain tests and run under
# `test`. Performance is measured by `bash bench/run.sh` (BENCHMARK.json,
# bench/README.md), not here.
verify: build vet fmt-check loc-check reach-check deps-check fidelity-check fault-check test race bench-test bench-smoke fuzz-smoke

# loc prints the ROADMAP's code-size measure: non-test Go lines outside the
# benchmark module.
LOC = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l
loc:
	@$(LOC)

# loc-check is the ratchet on the first of those figures: it fails when the
# tree has grown past LOC_CEILING. A PR that needs more room raises the
# number here, in its own diff, where a reviewer sees it; one that shrinks
# the tree lowers it to its result.
LOC_CEILING = 24926
loc-check:
	@n=$$($(LOC)); if [ $$n -gt $(LOC_CEILING) ]; then \
		echo "loc-check: $$n non-test Go lines, ceiling $(LOC_CEILING): raise LOC_CEILING in the Makefile if the growth is meant"; exit 1; fi

# reach-check is the ratchet on product code nothing runs. The root
# package's TestProductCodeIsReached type-checks the module and bench/ with
# go/types (offline, over `go list -deps -export`) and fails on any non-test
# declaration that no main, init, package-level var, exported name of
# package adwars or name bench/ uses reaches, unless its keptOnPurpose list
# names it. It guards against what two clean-ups of this tree each had to
# delete by hand: exports only tests called, which crept back in between
# them. `test` runs it too; this target names it, so a failure says which
# gate it was.
reach-check:
	$(GO) test -count=1 -run '^TestProductCodeIsReached$$' .

# deps-check is the ratchet on what the serving binaries link. The root
# package's TestImportBoundary reads `go list -deps` of the three serving
# commands: adwars-gateway and adwars-ctl must link exactly artifact,
# chassis, fleet and wire of internal/ (the replica health contract lives in
# chassis, so fleet needs nothing of serve), and adwars-serve none of the
# crawl (crawler, wayback, har, web, stats; the worker pool both halves fan
# out through is the leaf package fanout). `test` runs it too; this target
# names it, so a failure says which gate it was.
deps-check:
	$(GO) test -count=1 -run '^TestImportBoundary$$' .

# fidelity-check is the ratchet on the paper's numbers, the targets of
# internal/experiments/targets.go. TestReportRunsToTheEnd (cmd/adwars-report)
# runs the report in five scaled worlds and fails when one of them stops
# short of its closing line, or when a verdict of its "Paper vs measured"
# table flips from the one pinned there for the three worlds it pins;
# TestExperimentsTableIsTheReport (internal/experiments) fails when
# EXPERIMENTS.md's table is not that section of the committed
# report_full.txt, byte for byte, or when that section declares a target
# (quantity, paper value, band) otherwise than targets.go does now (~5 s,
# offline). `test` runs them too; this target names them, so a failure says
# which gate it was.
fidelity-check:
	$(GO) test -count=1 -run '^(TestReportRunsToTheEnd|TestExperimentsTableIsTheReport)$$' ./cmd/adwars-report ./internal/experiments

# bench-test runs the tests of bench/, the whole-stack benchmark behind
# BENCHMARK.json: corpus determinism, the oracle, the run-must-fail checks
# and a short smoke of every workload (~30 s).
bench-test:
	cd bench && $(GO) test ./...

# bench-smoke runs every `go test -bench` function once. They are for
# measuring while working, not for claims, and nothing else runs them, so a
# benchmark whose set-up no longer builds its fixture (serve's, once the
# artifact seal became mandatory) would otherwise fail unseen. One iteration
# each takes seconds for the whole tree.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

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
# FuzzProjectProgram: the served projection turns most texts away on one bit
# of their first byte and length before looking at them, and a shortcut like
# that is exactly what drops a hit on an input nobody wrote down, so for
# whatever parses it must equal Project(Extract) under every feature set.
# Then ten seconds of FuzzReadListsSnapshot: a snapshot cut at or inside any section, or with its
# sections reordered, repeated or renamed, or with the bytes of its rule text
# or of an automaton overwritten under a fresh frame, never panics the loader,
# and whatever loads answers as the linear scan over its own rules does. Its
# seeds are whole snapshot files, hence the same cap. Then ten seconds of
# FuzzBackendReply: the gateway reads replica replies off its own keep-alive
# connections, so whatever bytes a replica answers with, and whether it then
# closes or goes silent, the gateway neither panics nor hangs past its
# per-try timeout, and pools the connection only after a reply that
# net/http's own reader finds complete, keep-alive and followed by nothing.
# Then ten seconds of FuzzServeConn, the same for the other direction: both
# servers read client bytes on their own loop (internal/wire), so whatever
# arrives, the loop neither panics nor keeps the connection past its window,
# and every request http.ReadRequest finds in the bytes is answered as the
# handler answers it under httptest. Then ten seconds of
# FuzzMatchQueryDecode: /v1/match's hand-written decoder, where it takes an
# input at all, gives the value json.Unmarshal gives (where it does not,
# json.Unmarshal is what runs), and the response encoder writes any text as
# json.Encoder does. Then ten seconds of FuzzGlobMatch: the glob that jumps
# to the next byte its pattern can resume at answers as the loop that retries
# every offset. Then ten seconds of FuzzGuard: whenever a rule's pattern
# matches a URL, each of its runs occurs there somewhere its guard admits —
# what lets the scan drop an occurrence out of context. Then ten seconds of
# FuzzOpenSections: the one-pass sectioned reader accepts and refuses what
# Open followed by the old two-pass section walk did, for the same reason,
# and returns the same sections and version. Its seeds are whole sealed
# files, hence the cap. Then ten seconds of FuzzLogSize: the crawl's
# partial-snapshot rule reads har.Log.Size, which counts the encoding
# instead of running it, so for any URL, body, title and MIME strings (HTML
# bytes, controls, invalid UTF-8, U+2028/2029) and any time (any zone,
# nanoseconds, years outside 0–9999) it must equal len(Marshal), and be 0
# where Marshal fails. Last, ten seconds of FuzzHiddenElements: for any list,
# page and elements, the element hiding index (abp.Hiding: selectors by id,
# the id-less bucket, the per-page domain memo, the $elemhide and
# $generichide toggles) hides what a linear scan of the list's hiding
# rules, each selector parsed afresh, hides.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMatchDifferential -fuzztime 10s ./internal/abp
	$(GO) test -run '^$$' -fuzz FuzzReadModelSnapshot -fuzztime 10s -fuzzminimizetime 1s ./internal/ml
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 1s ./internal/jsast
	$(GO) test -run '^$$' -fuzz FuzzProjectProgram -fuzztime 10s -fuzzminimizetime 1s ./internal/features
	$(GO) test -run '^$$' -fuzz FuzzReadListsSnapshot -fuzztime 10s -fuzzminimizetime 1s ./internal/abp
	$(GO) test -run '^$$' -fuzz FuzzBackendReply -fuzztime 10s -fuzzminimizetime 1s ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzServeConn -fuzztime 10s -fuzzminimizetime 1s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzMatchQueryDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzGlobMatch -fuzztime 10s ./internal/abp
	$(GO) test -run '^$$' -fuzz FuzzGuard -fuzztime 10s ./internal/abp
	$(GO) test -run '^$$' -fuzz FuzzOpenSections -fuzztime 10s -fuzzminimizetime 1s ./internal/artifact
	$(GO) test -run '^$$' -fuzz FuzzLogSize -fuzztime 10s ./internal/har
	$(GO) test -run '^$$' -fuzz FuzzHiddenElements -fuzztime 10s ./internal/abp

# paper-check re-runs the paper at paper scale; it is not part of verify
# (about a minute on 2 cores). It builds adwars-report, runs it at -scale 1
# -seed 42, prints the wall time, and fails unless stdout equals the
# committed report_full.txt but for the closing "report complete in …"
# line. Then it prints BenchmarkTrainAdaBoost's sweeps/op, decisions/op
# (ordered sums taken) and the solver's two skip counts (kkt-skips/op,
# step-skips/op: sums its error bound showed no decision needed), so the
# claim that the solver's skips change no bit of the paper, and what they
# save, can be re-checked with one command.
paper-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/adwars-report" ./cmd/adwars-report && \
	start=$$(date +%s) && \
	"$$dir/adwars-report" -scale 1 -seed 42 > "$$dir/got.txt" && \
	echo "paper-check: adwars-report -scale 1 -seed 42 ran $$(( $$(date +%s) - start )) s" && \
	sed '/^report complete in /d' report_full.txt > "$$dir/want.txt" && \
	sed '/^report complete in /d' "$$dir/got.txt" > "$$dir/got-untimed.txt" && \
	diff "$$dir/want.txt" "$$dir/got-untimed.txt" && \
	echo "paper-check: stdout equals report_full.txt but for the timing line" && \
	$(GO) test -run '^$$' -bench '^BenchmarkTrainAdaBoost$$' -benchtime 1x ./internal/ml | grep '^BenchmarkTrainAdaBoost'

# fault-check exercises the headline robustness claim end to end: the
# retrospective CLI at a 10% transient fault rate must emit byte-identical
# figures to a zero-fault run. The outputs go to a directory of the run's
# own, so two concurrent runs do not overwrite each other's.
fault-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/adwars-wayback -scale 50 -stride 6 > "$$dir/clean.txt" 2>/dev/null && \
	$(GO) run ./cmd/adwars-wayback -scale 50 -stride 6 -fault-rate 0.1 > "$$dir/faulty.txt" 2>/dev/null && \
	diff "$$dir/clean.txt" "$$dir/faulty.txt" && \
	echo "fault-check: figures identical under 10% faults"
