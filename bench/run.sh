#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness into
# .bench_build/ at the root of the checkout — Go's build cache, temp files
# and (through XDG_CONFIG_HOME) the toolchain's telemetry counters are kept
# there too, so nothing outside the checkout is written — and runs it with
# the arguments given. The harness builds
# ./cmd/dvms-serve itself, with the same cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/dvms-bench" .
cd "$root"
exec "$out/dvms-bench" "$@"
