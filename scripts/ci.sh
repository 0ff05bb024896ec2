#!/usr/bin/env sh
# CI gate: build, vet, gofmt, full test suite (this module and bench/), a
# run of every example and of hmcsim on each of its six workloads (the
# facade's only in-repo callers), then the race detector over the packages
# whose state crosses goroutines (the parallel sweep running simulators
# side by side through the shared session and page pools, each simulator
# recycling responses through its own devices' free lists, the evaluation
# report rendered by four sweep workers against its golden, the atomic
# metrics registry, a span-traced sweep asked for four workers, which must
# feed its one recorder from one simulator at a time, and the session
# server's connection readers sharing the striped session table), the
# engine-equivalence suites under -race, the zero-alloc smoke pinning the
# topo clock's allocation-free forwarding and the clock loop with no
# observer and with every observer attached, and finally a 1-iteration
# benchmark smoke so every benchmark at least compiles and executes (~5s;
# it measures nothing).
# Speed is not gated here: scripts/bench.sh measures it from repeated,
# alternating runs.
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
# Formatting gate over the tracked Go files (bench/ included; build
# output such as .bench_build/ is untracked and never counts).
test -z "$(gofmt -l $(git ls-files '*.go'))"
go test ./...
# bench/ is its own module (it imports this one through a replace), so
# ./... above never builds it; vet and test it here so a removed or
# renamed name it uses fails CI instead of the next benchmark run.
(cd bench && go vet ./... && go test .)
# The examples and hmcsim are the facade's only callers in the
# repository; the build above compiles them, this runs them, so a
# driver that errors or panics fails CI.
for e in examples/*/; do go run "./$e" >/dev/null; done
for w in mutex stream gups bfs replay rwlock; do
    go run ./cmd/hmcsim -workload "$w" -stats >/dev/null
done
go test -race ./internal/device ./internal/fault ./internal/mem ./internal/metrics ./internal/paper ./internal/server ./internal/sim ./internal/span ./internal/topo ./internal/workload
equiv='TestClockModeEquivalence|TestEventClock|TestSpans|TestObservedClockMatchesPerCycle'
check_run "$equiv" .
go test -race -run "$equiv" .
# Session-server gate: the 500-session loopback smoke (concurrent
# clients churning a full fleet over one connection), the wire
# equivalence suite (bit-identical stats and response streams between
# wire-driven and in-process sessions, in all four wire modes — json,
# binary, and the batched variant of each), four connections driving
# each other's sessions through the striped session table while the
# sweeper evicts an idle one, and a stalled reader dropped without
# stalling another connection or leaking a goroutine.
wire='TestSmoke500Sessions|TestWireEquivalence|TestStripesAcrossConnections|TestStalledReaderDropped'
check_run "$wire" ./internal/server
go test -run "$wire" -count=1 ./internal/server
# Batched-load race smoke: a small hmcd-load fleet driving binary
# batched frames through the full client/reader/writer pipeline under
# the race detector — the pipelined client reader, the per-connection
# mode switch, and batch execution on four connection readers sharing
# the session table all run concurrently here.
go run -race ./cmd/hmcd-load -sessions 200 -rounds 2 -warmup 1 -conns 4 -workers 8 -proto binary -batch > /dev/null
# Allocation-regression gate: every pin that asserts a hot path stays
# allocation-free (the pins skip themselves under -race, so this is a
# separate non-race invocation). TestClockLoopSpansOffZeroAlloc in the
# root package pins the clock loop with no observer attached and
# TestClockLoopObserversZeroAlloc the loop with the trace writer, span
# recorder, metrics and power model all attached; TestEmitZeroAlloc
# in internal/span pins the recording path itself;
# TestSteadyStateAllocs pins the warm server round trip (clock and
# batched send/recv, both protocols) at single-digit allocs/op;
# TestReadFrameAllocs pins the binary frame reader at zero allocs per
# frame; TestNewFootprintBytes pins the bytes one simulator build
# allocates.
allocs='ZeroAlloc|TestSteadyStateAllocs|TestReadFrameAllocs|TestNewFootprintBytes'
check_run "$allocs" . ./internal/metrics ./internal/span ./internal/server
go test -run "$allocs" -count=1 . ./internal/metrics ./internal/span ./internal/server
go test -run '^$' -bench . -benchtime 1x ./...

