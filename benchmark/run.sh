#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload inproc-mixed --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build (the go build cache included), so a run leaves nothing behind
# elsewhere and needs no network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off

(cd "$root/benchmark" && go build -o "$build/kite-benchmark" .)
exec "$build/kite-benchmark" "$@"
