#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout's root. Everything the build and the run write stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/benchmark" .
# A cold build leaves hundreds of MB of dirty pages; let them reach the disk
# before anything is timed.
sync
cd "$root"
exec "$build/benchmark" "$@"
