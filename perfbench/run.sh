#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload point_read --seed 1 --seconds 10 --trace 0
#
# Build outputs, caches, checkpoints and span files stay under
# .bench_build in the checkout. Outside a full checkout the build fails
# (perfbench/go.mod replaces the repro module with the parent
# directory), so the script exits non-zero without a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -work "$build" "$@"
