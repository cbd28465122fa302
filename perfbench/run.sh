#!/usr/bin/env bash
# Builds the oltpsim benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload figs-uni --seed 0 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
