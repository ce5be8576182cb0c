#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash ltrbench/run.sh --workload cold_walk --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, the binary, WAL
# directories, span files) goes under .bench_build/ in the current
# directory. The build needs the repository's own go.mod one level up; in
# a directory without it the build fails and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/ltrbench" && go build -o "$out/ltrbench" .) >&2
exec "$out/ltrbench" -root "$root" "$@"
