#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root: bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR when set): the Go build cache, the binary, scratch
# files and span output. The build stamps no version-control data
# (-buildvcs=false): the checkout it runs in need not be a repository,
# and one that encloses it may be unreadable to git.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOPATH=$out/gopath GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off CGO_ENABLED=0
(cd "$here" && go build -buildvcs=false -o "$out/lfoc-benchmark" .)
exec "$out/lfoc-benchmark" --specs "$here/specs" --out "$out" "$@"
