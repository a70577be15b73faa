#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from the checkout
# it is started in and runs it with the arguments given. Everything it
# writes stays inside that checkout, under .bench_build/: the Go build
# cache, the binary, and the run's scratch files. Without the repository
# around it (no go.mod) the build fails and so does this script.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/tsqbench ./benchmark
exec .bench_build/tsqbench "$@"
