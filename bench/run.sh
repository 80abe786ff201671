#!/usr/bin/env bash
# Builds ggbench and ggcd from the checkout it is run in and runs one
# benchmark workload. Run it from the repository root:
#
#   bash bench/run.sh --workload compile-vax --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes (binaries, the Go build cache, traces)
# goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

cd "$root/bench"
go build -o "$out/ggbench" ./ggbench
go build -o "$out/ggcd" ggcg/cmd/ggcd
cd "$root"

exec "$out/ggbench" -ggcd "$out/ggcd" -trace-dir "$out/traces" "$@"
