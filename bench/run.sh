#!/usr/bin/env bash
# bench/run.sh — build the benchmark from source and run it; the command of
# BENCHMARK.json. Run from the repository root (or anywhere: it finds the
# root from its own path). Every argument goes to the benchmark:
#
#   bash bench/run.sh                               # all five workloads
#   bash bench/run.sh --workload rr_flows --seed 7 --seconds 20 --trace 0
#   bash bench/run.sh --workload bulk_clear --trace 1   # per-layer metrics + span file
#   bash bench/run.sh -aa 5                         # A/A repeatability check
#
# Everything the build writes — binary, Go build cache, module cache, the Go
# tool's own state — stays under .bench_build/ in the repository root, so a
# run touches nothing outside its checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
# bench/ is its own module (udt/bench) that replaces the udt module with the
# parent directory: without the repository around it this build fails, and
# the script exits non-zero without printing a result.
(cd "$here" && go build -o "$out/udtbench" .)
cd "$root"
exec "$out/udtbench" "$@"
