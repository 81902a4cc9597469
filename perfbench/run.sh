#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper_un_base --seed 1 --seconds 55 --trace 0
#
# Run from the repository root. Every build artefact (Go build cache,
# temporary files, the binary, traces) stays under .bench_build.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
