#!/bin/sh
# run.sh builds navserve and the benchmark from the checkout it is run
# in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   sh benchmark/run.sh --workload browse --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the build's temporary files, the
# binaries and each run's stores.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on, the go command forks a detached sidecar process that
# outlives it; the mode file under XDG_CONFIG_HOME turns telemetry off.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/navserve" ./cmd/navserve
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" --navserve "$out/navserve" "$@"
