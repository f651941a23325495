#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash bench/run.sh --workload model-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, toolchain
# telemetry, scratch stores) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

go -C bench build -o "$out/tytrabench-e2e" .
exec "$out/tytrabench-e2e" "$@"
