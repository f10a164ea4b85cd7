#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes —
# binary, Go build cache, temporary files — stays under .bench_build in the
# checkout; span files go to bench/out.
#
#   bash bench/run.sh --workload dnn-bulk --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$build/taurus-bench" .)
exec "$build/taurus-bench" -out "$here/out" "$@"
