#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ of the checkout this file sits in
# and runs it from the checkout's root with the arguments given. Build
# cache, scratch files and outputs all stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/sgtree-bench" .
cd "$root"
exec "$build/sgtree-bench" "$@"
