#!/usr/bin/env sh
# CI gate: build, vet, full test suite (this module and bench/), then
# the race detector over the
# packages whose state crosses goroutines (the parallel sweep running
# simulators side by side through the shared session, page and packet
# pools, the evaluation report rendered by four sweep workers against
# its golden, the atomic metrics registry, the span and trace recorders
# a sweep's workers share, and the session server's shards), the
# engine-equivalence suites under -race, the zero-alloc smoke pinning
# the topo clock's allocation-free forwarding and the spans-disabled
# clock loop, and finally a 1-iteration benchmark smoke so every
# benchmark at least compiles and executes (~5s; it measures nothing).
set -eux

# check_run PATTERN PKG... fails unless every |-separated alternative of
# a -run PATTERN names a test in one of the packages and every package
# holds a match: a renamed or deleted test would otherwise drop out of
# its gate silently.
check_run() {
    pattern="$1"
    shift
    for pkg in "$@"; do
        if ! go test -list "$pattern" "$pkg" | grep -q '^Test'; then
            echo "ci: -run '$pattern' matches no test in $pkg" >&2
            exit 1
        fi
    done
    alts="$(printf '%s\n' "$pattern" | tr '|' '\n')"
    for alt in $alts; do
        if ! go test -list "$alt" "$@" | grep -q '^Test'; then
            echo "ci: -run alternative '$alt' matches no test in $*" >&2
            exit 1
        fi
    done
}

go build ./...
go vet ./...
go test ./...
# bench/ is its own module (it imports this one through a replace), so
# ./... above never builds it; vet and test it here so a removed or
# renamed name it uses fails CI instead of the next benchmark run.
(cd bench && go vet ./... && go test .)
go test -race ./internal/device ./internal/fault ./internal/mem ./internal/metrics ./internal/paper ./internal/server ./internal/sim ./internal/span ./internal/topo ./internal/workload
equiv='TestClockModeEquivalence|TestEventClock|TestSpans'
check_run "$equiv" .
go test -race -run "$equiv" .
# Session-server gate: the 500-session loopback smoke (concurrent
# clients churning a full fleet over one connection) and the wire
# equivalence suite (bit-identical stats and response streams between
# wire-driven and in-process sessions, in all four wire modes — json,
# binary, and the batched variant of each).
wire='TestSmoke500Sessions|TestWireEquivalence'
check_run "$wire" ./internal/server
go test -run "$wire" -count=1 ./internal/server
# Batched-load race smoke: a small hmcd-load fleet driving binary
# batched frames through the full client/conn/shard pipeline under the
# race detector — the pipelined client reader, the per-connection mode
# switch, and batch execution on the shards all run concurrently here.
go run -race ./cmd/hmcd-load -sessions 200 -rounds 2 -warmup 1 -conns 4 -workers 8 -proto binary -batch > /dev/null
# Allocation-regression gate: every pin that asserts a hot path stays
# allocation-free (the pins skip themselves under -race, so this is a
# separate non-race invocation). TestClockLoopSpansOffZeroAlloc in the
# root package pins the disabled-tracer clock loop; TestEmitZeroAlloc
# in internal/span pins the recording path itself;
# TestSteadyStateAllocs pins the warm server round trip (clock and
# batched send/recv, both protocols) at single-digit allocs/op.
allocs='ZeroAlloc|TestSteadyStateAllocs'
check_run "$allocs" . ./internal/metrics ./internal/span ./internal/server
go test -run "$allocs" -count=1 . ./internal/metrics ./internal/span ./internal/server
go test -run '^$' -bench . -benchtime 1x ./...

# Speed-regression check: re-measure the key hot-path benchmarks and
# diff ns/op against the most recent BENCH_*.json. Growth beyond 10%
# prints a WARNING but does not fail the gate — CI hosts are noisy;
# scripts/bench.sh records the authoritative trajectory.
cd "$(dirname "$0")/.."
baseline="$(ls -1t BENCH_*.json 2>/dev/null | head -1 || true)"
if [ -n "$baseline" ]; then
    go test -run '^$' \
        -bench 'BenchmarkClockLoopCMC$|BenchmarkClockLoop$|BenchmarkCRC|BenchmarkMutexSweepSerial|BenchmarkTopoChainClockSerial' \
        -benchtime 1s . |
    awk -v basefile="$baseline" '
      BEGIN {
        while ((getline line < basefile) > 0) {
          if (match(line, /"name": "[^"]+"/)) {
            name = substr(line, RSTART + 9, RLENGTH - 10)
            if (match(line, /"ns_per_op": [0-9.]+/))
              base[name] = substr(line, RSTART + 13, RLENGTH - 13) + 0
          }
        }
      }
      /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        for (i = 2; i <= NF; i++) if ($(i+1) == "ns/op") ns = $i + 0
        if (!(name in base) || base[name] <= 0) next
        growth = (ns - base[name]) / base[name] * 100
        tag = (growth > 10) ? "  <-- WARNING: >10% ns/op growth" : ""
        printf "  %-32s %12.1f -> %-12.1f %+6.1f%%%s\n", name, base[name], ns, growth, tag
      }'
else
    echo "no BENCH_*.json baseline; skipping speed-regression check"
fi
