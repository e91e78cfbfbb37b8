#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# build and the run write inside the checkout: the Go build cache, temporary
# files, the binary and the providers' data directories all live under
# .bench_build. Arguments go to the benchmark unchanged, e.g.
#
#   bash bench/run.sh --workload derive --seed 7 --seconds 15 --trace 0
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
go build -o "$out/evobench" ./bench
exec "$out/evobench" "$@"
