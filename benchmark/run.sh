#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command): builds the harness
# from this checkout's sources, then runs it with the arguments given:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout: the Go
# caches and the binary under .bench_build/, span lists under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its counters
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -C "$here" -o "$build/benchmark" .
exec "$build/benchmark" --outdir "$here/out" "$@"
