#!/usr/bin/env sh
# Runs the hot-path benchmarks (perf_bench_test.go) with -benchmem and
# records them as machine-readable JSON in BENCH_<date>.json, tracking
# the performance trajectory across PRs. Compare against the table in
# EXPERIMENTS.md ("Performance" section).
#
# After recording, the run is diffed against the most recent prior
# BENCH_*.json: any benchmark whose ns/op grew by more than 10% prints a
# WARNING (the script still exits 0 — benchmarks on shared hosts are
# noisy; the warning is a prompt to re-run and investigate, not a gate).
#
# Each record carries the host's GOMAXPROCS and CPU count so a diff
# between records from different hosts can be read as such.
#
# Usage: ./scripts/bench.sh [extra go test args]
set -eu

cd "$(dirname "$0")/.."
date="$(date +%F)"
numcpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
gomaxprocs="${GOMAXPROCS:-$numcpu}"
out="BENCH_${date}.json"
# Never clobber an existing record: same-day reruns get a numeric suffix
# so earlier baselines stay diffable.
n=1
while [ -e "$out" ]; do
    n=$((n + 1))
    out="BENCH_${date}.${n}.json"
done
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Most recent prior baseline (by modification time — suffixed same-day
# records sort wrongly under a lexical sort), captured before $out is
# written.
prev="$(ls -1t BENCH_*.json 2>/dev/null | head -1 || true)"

# The BenchmarkClockLoop prefix also covers the span-tracer pair
# (BenchmarkClockLoopSpansOff / BenchmarkClockLoopSpansSampled), so the
# sampled-tracing overhead rides the same >10% regression warning.
go test -run '^$' \
    -bench 'BenchmarkClockLoop|BenchmarkMutexSweep|BenchmarkPacket|BenchmarkCRC|BenchmarkMetrics|BenchmarkFault|BenchmarkTopoChainClock|BenchmarkPooledExecPhase|BenchmarkIdleFastForward' \
    -benchmem -benchtime 1s "$@" . | tee "$raw"

# Session-server hot paths: one protocol round trip against a warm
# session, a full send/clock/recv request cycle (sequential and as one
# batch frame in each wire encoding), and pooled init+close session
# churn.
go test -run '^$' \
    -bench 'BenchmarkServerOpRoundTrip|BenchmarkServerSendRecvRoundTrip|BenchmarkServerBatchedSendRecv|BenchmarkServerSessionChurn' \
    -benchmem -benchtime 1s ./internal/server | tee -a "$raw"

# The many-thousand-session load harness: 10k concurrent sessions on an
# in-process server, sessions/sec, ops/sec and exact steady-state
# p50/p99 latency (open-phase latency is reported separately). Two
# variants ride in the BENCH json: the debuggable default (line-JSON,
# one op per frame) under "hmcd_load", and the fast path (binary
# protocol, 3-op batched frames) under "hmcd_load_binary_batch".
loadraw="$(mktemp)"
loadraw2="$(mktemp)"
trap 'rm -f "$raw" "$loadraw" "$loadraw2"' EXIT
go run ./cmd/hmcd-load -sessions 10000 -rounds 3 -warmup 1 -out "$loadraw"
go run ./cmd/hmcd-load -sessions 10000 -rounds 3 -warmup 1 -proto binary -batch -out "$loadraw2"

awk -v date="$date" -v gomaxprocs="$gomaxprocs" -v numcpu="$numcpu" \
    -v loadfile="$loadraw" -v loadfile2="$loadraw2" '
  # embed splices one pretty-printed hmcd-load record into the output
  # object under key, preceded by a comma; returns 1 if anything was
  # written.
  function embed(file, key,    firstline, l) {
    if (file == "" || (getline firstline < file) <= 0) return 0
    printf ",\n  \"%s\": %s\n", key, firstline
    while ((getline l < file) > 0) printf "  %s\n", l
    return 1
  }
  /^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; pts = ""; cyc = ""
    for (i = 2; i <= NF; i++) {
      if ($(i+1) == "ns/op") ns = $i
      if ($(i+1) == "B/op") bytes = $i
      if ($(i+1) == "allocs/op") allocs = $i
      if ($(i+1) == "points/s") pts = $i
      if ($(i+1) == "simcycles/s") cyc = $i
    }
    line = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s",
                   name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs)
    # Sweep benchmarks report derived throughput (points retired and
    # simulated device cycles per wall second); carry them through.
    if (pts != "") line = line sprintf(", \"sweep_points_per_sec\": %s", pts)
    if (cyc != "") line = line sprintf(", \"sim_cycles_per_sec\": %s", cyc)
    line = line "}"
    lines[n++] = line
  }
  END {
    printf "{\n  \"date\": \"%s\",\n  \"gomaxprocs\": %d,\n  \"numcpu\": %d,\n  \"benchmarks\": [\n", date, gomaxprocs, numcpu
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "")
    printf "  ]"
    any = embed(loadfile, "hmcd_load")
    any += embed(loadfile2, "hmcd_load_binary_batch")
    if (any > 0) printf "}\n"
    else printf "\n}\n"
  }
' "$raw" > "$out"

echo "wrote $out"

if [ -n "$prev" ] && [ -f "$prev" ]; then
    # Like-with-like check: warn when the prior record ran under a
    # different core budget (older records carry no gomaxprocs field and
    # count as unknown).
    prev_procs="$(sed -n 's/.*"gomaxprocs": \([0-9][0-9]*\).*/\1/p' "$prev" | head -1)"
    if [ "${prev_procs:-unknown}" != "$gomaxprocs" ]; then
        echo "NOTE: $prev ran with GOMAXPROCS=${prev_procs:-unknown}, this run with $gomaxprocs."
    fi
    echo "diff vs $prev (ns/op):"
    awk -v prevfile="$prev" '
      {
        if (match($0, /"name": "[^"]+"/)) {
          name = substr($0, RSTART + 9, RLENGTH - 10)
          if (match($0, /"ns_per_op": [0-9.]+/)) {
            ns = substr($0, RSTART + 13, RLENGTH - 13) + 0
            if (FILENAME == prevfile) old[name] = ns
            else new[name] = ns
            if (!(name in seen)) { order[m++] = name; seen[name] = 1 }
          }
        }
      }
      END {
        for (i = 0; i < m; i++) {
          n = order[i]
          if (!(n in new)) continue
          if (!(n in old) || old[n] <= 0) {
            printf "  %-32s %12.1f  (new benchmark)\n", n, new[n]
            continue
          }
          growth = (new[n] - old[n]) / old[n] * 100
          tag = (growth > 10) ? "  <-- WARNING: >10% ns/op growth" : ""
          printf "  %-32s %12.1f -> %-12.1f %+6.1f%%%s\n", n, old[n], new[n], growth, tag
        }
      }
    ' "$prev" "$out"
else
    echo "no prior BENCH_*.json to diff against"
fi
