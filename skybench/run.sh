#!/usr/bin/env bash
# Builds the Skyline served-response benchmark from this checkout's
# source and runs it, passing every argument through:
#
#   bash skybench/run.sh --workload explore-stream --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache included, go to .bench_build/, so a
# run reads and writes only inside the checkout. Without the repository's
# own sources (../go.mod) the build fails and nothing is run.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C skybench build -o "../$out/skybench" .
exec "$out/skybench" "$@"
