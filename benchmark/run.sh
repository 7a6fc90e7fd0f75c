#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; arguments are passed
# through. The binary, the Go build cache and GOPATH live under .bench_build in
# the checkout, so that a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ocelot-benchmark" .)
exec "$build/ocelot-benchmark" --root "$root" "$@"
