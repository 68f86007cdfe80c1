#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the repository root:
#
#   bash benchmark/run.sh --workload catalog --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run directories go to
# $CARGO_TARGET_DIR (default .bench_build) so nothing is written outside
# the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f benchmark/go.mod ]]; then
	echo "benchmark: run from the repository root (go.mod, internal/ and benchmark/ must exist)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C benchmark build -buildvcs=false -o "$out/benchmark" .
exec "$out/benchmark" -work "$out" "$@"
