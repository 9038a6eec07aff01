#!/usr/bin/env bash
# Builds the benchmark harness and cmd/dpmd from this checkout into
# .bench_build/ at the repository root, then runs the harness with the
# given arguments, for example:
#
#   bash bench/run.sh --workload serve-hot --seed 3 --seconds 20 --trace 0
#
# Go's build cache, temporary files and per-user config (where the go
# command keeps its telemetry counters) stay inside .bench_build/ too,
# and nothing is fetched: the harness needs only the standard library
# and this repository.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench" build -o "$out/bench" .
go -C "$root" build -o "$out/dpmd" ./cmd/dpmd
exec "$out/bench" -root "$root" -dpmd "$out/dpmd" "$@"
