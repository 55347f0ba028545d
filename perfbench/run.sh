#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it,
# passing every argument on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload quick-matrix --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout, the Go build cache included.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
