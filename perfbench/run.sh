#!/usr/bin/env bash
# Builds the benchmark from source and runs one measurement:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, serve cache directory,
# CPU profile, spans) stays under $CARGO_TARGET_DIR, default .bench_build
# at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -buildvcs=false -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" -workdir "$build/perfbench" "$@"
