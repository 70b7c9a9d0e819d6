#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one
# workload, from the root of the checkout:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build cache, the binary and everything a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
go -C bench build -o "$out/apples-bench" .
exec "$out/apples-bench" -workdir "$out/work" "$@"
