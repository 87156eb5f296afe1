#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash bench/run.sh --workload edge-fanout --seed 1 --seconds 24 --trace 0
#
# Builds the benchmark from source into .bench_build/ (the Go build cache
# lives there too, so nothing outside the checkout is written) and runs it
# with the given arguments. The first call in a checkout compiles; later ones
# find everything cached.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/apollo-bench" .
exec "$build/apollo-bench" "$@"
