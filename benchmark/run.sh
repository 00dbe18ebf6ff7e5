#!/usr/bin/env bash
# Builds xemem-benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash benchmark/run.sh --workload attach-bulk --seed 42 --seconds 10 --trace 0
#
# Every file the build and the run write stays inside the checkout: the
# Go build cache and the binary live under .bench_build/ (or
# $CARGO_TARGET_DIR when set), and the toolchain never goes to the network.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOTMPDIR=$out
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd benchmark && go build -o "$out/xemem-benchmark" ./cmd/xemem-benchmark)
exec "$out/xemem-benchmark" "$@"
