#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (compile cache, temp files, the binary) stays
# under .bench_build/ in the checkout root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C benchmark -o "$build/neutral-benchmark" .
exec "$build/neutral-benchmark" "$@"
