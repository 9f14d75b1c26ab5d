#!/usr/bin/env bash
# Builds the benchmark and cmd/apsp-serve from source into .bench_build/
# in the current directory (the root of a checkout) and runs one
# benchmark invocation with the arguments given. Everything the build and
# the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

t0=$(date +%s%N)
(cd "$root/benchmark" && go build -o "$build/apsp-benchmark" .)
(cd "$root/benchmark" && go build -o "$build/apsp-serve" apspark/cmd/apsp-serve)
echo "build_ms: $(( ($(date +%s%N) - t0) / 1000000 ))" >&2

exec "$build/apsp-benchmark" -serve-bin "$build/apsp-serve" "$@"
