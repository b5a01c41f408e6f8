#!/usr/bin/env bash
# Builds the serving benchmark and xqserve from this checkout, then runs one
# benchmark invocation. Run from the repository root:
#
#	bash servebench/run.sh --workload dblp-selective --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache, binaries, per-run WAL directories).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go" GOFLAGS=-mod=mod \
	GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
go -C servebench build -o "$out/bin/servebench" . >&2
go -C servebench build -o "$out/bin/xqserve" sjos/cmd/xqserve >&2
exec "$out/bin/servebench" -xqserve "$out/bin/xqserve" -workdir "$out" "$@"
