#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write goes
# under $CARGO_TARGET_DIR (default .bench_build): the binary, the Go build
# cache, temporary knowledge stores, span traces and CPU profiles.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gotmp"

# Pinned so that two commits are always measured under identical settings.
export GOMAXPROCS=2 GOGC=100
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -out "$out" "$@"
