#!/usr/bin/env bash
# Builds the rdxperf benchmark from source and runs it with the given flags:
#   bash rdxperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every build output, cache and trace file
# lands under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/rdxperf" && go build -o "$out/rdxperf" .)
exec "$out/rdxperf" "$@"
