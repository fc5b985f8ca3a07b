#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload oneshot-mine --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache, module cache, Go config) and
# every output file stays under .bench_build/ in the current directory. The
# module needs nothing beyond the repository and the standard library, so
# the build never fetches modules.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off

go -C "$(dirname "$0")" build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
