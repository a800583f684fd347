#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash stampbench/run.sh --workload replay-storm-50k --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (the repository root): the Go build cache, the
# binary, the per-seed input cache and the traced runs' Chrome exports.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
(cd "$root/stampbench" && go build -o "$out/stampbench" .) >&2
exec "$out/stampbench" -dir "$out" "$@"
