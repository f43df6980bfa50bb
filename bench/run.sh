#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing every
# argument through. Everything a build or a run writes — Go's build cache,
# the binaries, temporary files, server logs — stays under .bench_build/ and
# bench/out/ in this checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" -bindir "$build/bin" "$@"
