#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload write-heavy --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/perfbench in that root: the Go build cache and
# config (so toolchain telemetry stays there too), the binary, the
# simulated cluster's files and the traced run's spans.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
