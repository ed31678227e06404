#!/usr/bin/env bash
# The BENCHMARK.json command.  Builds the benchmark from source inside the
# checkout — build cache, temp files and binary all under .bench_build, so
# nothing is read or written outside it — and runs it with the arguments
# given (--workload W --seed N --seconds S --trace 0|1).  Run from the repo
# root; anywhere else there is no module to build and it exits non-zero.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/serve ]; then
    echo "benchmark/run.sh: run from the root of the repository (no go.mod here)" >&2
    exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
