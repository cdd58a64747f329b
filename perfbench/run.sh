#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload mixed --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build and run artefact stays under
# .bench_build/ in the current directory: the Go build cache, the binary
# and the span files of traced runs.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
