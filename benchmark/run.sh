#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout (binary and Go build cache under .bench_build/) and run it with
# the caller's arguments from the caller's directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
