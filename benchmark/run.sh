#!/usr/bin/env bash
# Entry point of the benchmark (the command in BENCHMARK.json). It builds the
# harness from source and hands it the arguments; the harness builds cmd/unsd.
# Everything the Go toolchain writes - build cache, temporary files, its
# telemetry counters - is pointed inside the checkout, under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -root "$root" "$@"
