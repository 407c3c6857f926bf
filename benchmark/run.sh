#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it from
# the checkout root. Everything the build writes (Go build cache, temp
# files, the toolchain's per-user files, the binary) stays under
# .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOENV=off
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/pbqpbench" .)
cd "$root"
exec "$build/pbqpbench" "$@"
