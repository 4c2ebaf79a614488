#!/usr/bin/env bash
# Builds simbench from source and runs it, from the root of a checkout:
#
#   bash simbench/run.sh --workload fastsim-mix --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, the stores and the span files all live
# under .bench_build in the checkout; nothing outside it is written.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off

go build -C "$root/simbench" -o "$out/simbench" .
exec "$out/simbench" -out "$out/simbench-runs" "$@"
