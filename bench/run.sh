#!/usr/bin/env bash
# The command of BENCHMARK.json: builds the harness from source and runs it
# with the arguments given. Everything the build leaves behind (the Go build
# cache, the linker's temporaries, the binary) goes to .bench_build at the
# root of the checkout, so a run reads and writes nothing outside it.
# `go run ./bench` is the same program built into the user's own Go cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/searchmem-bench" ./bench
exec "$build/searchmem-bench" "$@"
