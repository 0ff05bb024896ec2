#!/usr/bin/env sh
# CI gate: build, vet, gofmt, full test suite (this module and bench/), a
# run of every example and of hmcsim on each of its six workloads (the
# facade's only in-repo callers) and on a 4-cube chain, star and ring,
# hmc-trace over a trace and a metrics series the other CLIs write,
# hmcsim replaying a committed trace file and refusing a malformed one,
# then the race detector over the packages
# whose state crosses goroutines (the parallel sweep running simulators
# side by side through the shared session and page pools, each simulator
# recycling responses through its own devices' free lists, the evaluation
# report rendered by four sweep workers against its golden, the atomic
# metrics registry, a span-traced sweep asked for four workers, which must
# feed its one recorder from one simulator at a time, and the session
# server's connection readers sharing the striped session table), the
# engine-equivalence suites under -race, the hmcd binary serving an
# hmcd-load fleet on a Unix socket until SIGTERM drains it, the zero-alloc
# smoke pinning the multi-cube clock's allocation-free forwarding and the
# clock loop with no observer and with every observer attached, and
# finally a 1-iteration benchmark smoke so every benchmark at least
# compiles and executes (~5s; it measures nothing).
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
# The multi-cube step loop on each wiring (the mutex workload places
# its lock on the last cube, so every request is forwarded across the
# topology's hops and back), and hmc-trace, which has no tests of its
# own, over the JSONL trace hmcsim writes and the metrics time series
# hmc-bench samples.
for t in chain star ring; do
    go run ./cmd/hmcsim -workload mutex -devices 4 -topo "$t" -stats >/dev/null
done
tmp="$(mktemp -d)"
hmcd_pid=""
trap 'if [ -n "$hmcd_pid" ]; then kill "$hmcd_pid" 2>/dev/null || true; fi; rm -rf "$tmp"' EXIT
go run ./cmd/hmcsim -workload mutex -threads 16 -trace "$tmp/t.jsonl" >/dev/null
go run ./cmd/hmc-bench -sample "$tmp/s.jsonl" >/dev/null
go run ./cmd/hmc-trace -sample "$tmp/s.jsonl" "$tmp/t.jsonl" >/dev/null
# Replay from trace files, so the trace parser reads a file in CI: a
# committed trace of reads and writes of several sizes and two atomics
# must replay, and a malformed one (a read size with no command) must
# exit 1 naming its line, without a panic. hmcsim is built rather than
# run through go run, so the exit status is the program's own.
go build -o "$tmp/hmcsim" ./cmd/hmcsim
"$tmp/hmcsim" -workload replay -replay-file cmd/hmcsim/testdata/replay.trace >/dev/null
status=0
"$tmp/hmcsim" -workload replay -replay-file cmd/hmcsim/testdata/bad.trace >/dev/null 2>"$tmp/bad.err" || status=$?
test "$status" -eq 1
grep -q 'line 4' "$tmp/bad.err"
if grep -q panic "$tmp/bad.err"; then
    echo "ci: hmcsim panicked on a malformed trace" >&2
    exit 1
fi
go test -race ./internal/device ./internal/fault ./internal/mem ./internal/metrics ./internal/paper ./internal/server ./internal/sim ./internal/span ./internal/workload
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
# The hmcd daemon end to end: its Unix-socket transport serves a small
# hmcd-load fleet, then SIGTERM drains it, which must exit 128+15 and
# remove the socket. Both are built rather than run through go run, so
# the signal reaches the daemon and not a go process in front of it;
# the EXIT trap kills a daemon that a failing step leaves behind.
go build -o "$tmp/hmcd" ./cmd/hmcd
go build -o "$tmp/hmcd-load" ./cmd/hmcd-load
"$tmp/hmcd" -tcp "" -sock "$tmp/h.sock" &
hmcd_pid=$!
i=0
until [ -S "$tmp/h.sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "ci: hmcd opened no socket in 10s" >&2
        exit 1
    fi
    sleep 0.1
done
"$tmp/hmcd-load" -net unix -addr "$tmp/h.sock" -sessions 100 -rounds 1 -warmup 1 -conns 2 -workers 4 >/dev/null
kill -TERM "$hmcd_pid"
status=0
wait "$hmcd_pid" || status=$?
hmcd_pid=""
test "$status" -eq 143
test ! -e "$tmp/h.sock"
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
# allocates and TestSessionFootprintBytes those of an hmcd-shaped
# session (a build plus eight round trips into one vault).
allocs='ZeroAlloc|TestSteadyStateAllocs|TestReadFrameAllocs|TestNewFootprintBytes|TestSessionFootprintBytes'
check_run "$allocs" . ./internal/metrics ./internal/span ./internal/server
go test -run "$allocs" -count=1 . ./internal/metrics ./internal/span ./internal/server
go test -run '^$' -bench . -benchtime 1x ./...

