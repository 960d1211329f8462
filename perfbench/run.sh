#!/usr/bin/env bash
# Builds the layered serving benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload hotel-query --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact (compiler cache,
# binary, span dumps) stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
