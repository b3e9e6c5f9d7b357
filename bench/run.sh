#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through
# (see bench/main.go). Everything the build and the runs write stays
# inside the checkout: the Go build cache, the binary and the temp
# directory live under .bench_build/, results under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/samrbench" .
exec "$build/samrbench" "$@"
