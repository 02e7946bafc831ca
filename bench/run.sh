#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): builds the benchmark from
# source into .bench_build/ inside the checkout and runs it with the
# arguments given. Build cache, temp files and snapshot files all stay under
# .bench_build/, so nothing outside the checkout is written. In a directory
# that holds only the benchmark (no adwars module beside it) the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/bench" -o "$build/adwars-bench" .
exec "$build/adwars-bench" -workdir "$build/tmp" "$@"
