#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout and run it with the driver's arguments. Everything the build
# writes (binary, Go build cache, temporary files) stays under
# .bench_build, which .gitignore names.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
