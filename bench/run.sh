#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# executes it with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload dense4-wsdl --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, cached
# inputs, WAL directories, trace files) stays under .bench_build/ in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
# The benchmark and the repository use the standard library only: never
# download a module.
export GOPROXY=off

go build -C bench -o "$out/wsdbench" .
exec "$out/wsdbench" "$@"
