#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload search-3x3 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, temporary files, telemetry, the binary) stays under the
# build directory, $CARGO_TARGET_DIR when set and .bench_build otherwise,
# and no module is ever downloaded.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home" "$build/gocache" "$build/gopath" "$build/tmp"

export HOME=$build/home
export XDG_CONFIG_HOME=$build/home/.config
export XDG_CACHE_HOME=$build/home/.cache
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

go -C "$root/bench" build -o "$build/scar-bench" .
exec "$build/scar-bench" "$@"
