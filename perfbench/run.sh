#!/usr/bin/env bash
# Builds perfbench from this source tree and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh --summary .bench_build/perfbench-results/*-trace0.json
#
# Every build and result file stays under .bench_build in the current
# directory: the Go build cache, the binary, the result files and spans.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/perfbench-results" "$@"
