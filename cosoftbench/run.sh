#!/usr/bin/env bash
# Builds the cosoft benchmark from the checkout's sources and runs it.
#
#   bash cosoftbench/run.sh --workload fanout|groups|churn|durable \
#       --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Every build and run artefact (Go build
# cache, temp files, the binary, event logs, span dumps) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOWORK=off

(cd "$root/cosoftbench" && go build -o "$out/cosoftbench" .)
exec "$out/cosoftbench" -dir "$out" "$@"
