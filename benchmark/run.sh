#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark binary from
# source into .bench_build/ at the root of the checkout (Go's build cache is
# kept there too, so nothing is written outside the checkout), then replaces
# this shell with the binary: the benchmark itself is one foreground process
# that starts no children.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/cubism-bench" .)
cd "$root"
exec "$build/cubism-bench" "$@"
