#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the current directory,
# passing every argument through:
#
#   bash bench/run.sh --workload serve_hot --seed 1 --seconds 24 --trace 0
#
# The binary, the Go build cache and the trace files all go to .bench_build/
# under the current directory, so a run writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTMPDIR="$out" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
