#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare parent/*.out -- change/*.out
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, temporary files, the binary
# and each run's scratch directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

go -C bench build -o "$out/hmc-bench" .
exec "$out/hmc-bench" "$@"
