#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments (see README.md). Run it from the repository root:
#
#   bash mtcbench/run.sh --workload campaign-x86 --seed 1 --seconds 20 --trace 0
#
# Build products and the Go build cache go to .bench_build/ at the root, so
# nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config" XDG_CACHE_HOME="$root/.bench_build/cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$here" build -o "$root/.bench_build/mtcbench" .
exec "$root/.bench_build/mtcbench" -cache "$here/.cache" "$@"
