#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it. Run it from the
# root of a checkout; the arguments go to the benchmark:
#
#   bash pipebench/run.sh --workload tpch-tune --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly \
    CGO_ENABLED=0
(cd pipebench && go build -o "$out/bin/pipebench" .)
exec "$out/bin/pipebench" "$@"
