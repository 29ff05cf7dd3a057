#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the build and the run write stays under .bench_build/ and
# benchmark/out/ inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C "$root/benchmark" build -o "$build/xmitperf" .
cd "$root"
exec "$build/xmitperf" "$@"
