#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; arguments pass through to the benchmark:
#
#   bash e2ebench/run.sh --workload paper-day --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, the served fleet's
# snapshot roots and the span files of traced runs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench.$$" . && mv -f "$build/e2ebench.$$" "$build/e2ebench") >&2
exec "$build/e2ebench" --workdir "$build" "$@"
