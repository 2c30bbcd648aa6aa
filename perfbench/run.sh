#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-getpr --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# (Go build cache, binary, disk stores, trace files) goes under
# .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
PERFBENCH_COMMIT=unknown
if [ -d "$root/.git" ]; then PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown); fi
export PERFBENCH_COMMIT

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
