#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#   bash perfbench/run.sh --workload fleet-routed --seed 1 --seconds 40 --trace 0
# Run it from the repository root. Build cache, binary and scratch files
# stay under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
