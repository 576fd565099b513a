#!/usr/bin/env bash
# Builds sightbench from source and runs it with the given arguments,
# e.g. bash sightbench/run.sh --workload owner_interactive --seed 1 --seconds 15 --trace 0
# Run it from the repository root. Build products, the Go build cache
# and scratch state all stay under .bench_build in that directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/sightbench" .) >&2
exec "$out/sightbench" -workdir "$out" "$@"
