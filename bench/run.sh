#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash bench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, the go command's own state (module
# cache, telemetry counters) and its temporary files live in
# bench/.bench_build/, so a run writes nothing outside the benchmark's
# directory.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$dir/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOENV=off
tmp="$out/bench.$$"
go -C "$dir" build -o "$tmp" .
mv -f "$tmp" "$out/bench"
exec "$out/bench" "$@"
