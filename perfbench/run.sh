#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory (Go build cache, binary, results records).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOPROXY=off
export GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
