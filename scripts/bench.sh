#!/usr/bin/env bash
# Records repeated benchmark runs in BENCH_<date>.json.
#
#   scripts/bench.sh [PARENT_REF]
#
# With PARENT_REF it measures the parent (the tree committed at
# PARENT_REF) and the change (the working tree) in alternation. For
# every workload of BENCHMARK.json it runs PAIRS pairs of
#
#   bash bench/run.sh --workload W --seed S --seconds T --trace 0
#
# with T the run_seconds of BENCHMARK.json and seeds FIRST_SEED,
# FIRST_SEED+1, ...; the parent runs first on odd pairs and the change
# first on even ones. Then it runs PAIRS pairs of the hot-path
# microbenchmarks (MICRO=0 skips them): each side's test binaries are
# built once, and in every pair each row (a top-level benchmark
# function, with its sub-benchmarks) runs -count 1 on both sides back to
# back, each in its own process, the parent first on odd pairs. The two
# sides of a row are thus measured seconds apart, not a whole side's
# rows apart. Without a ref it records the working tree alone, in the
# same shape.
#
# Each side runs from its own snapshot in a temporary directory: the
# parent from `git archive PARENT_REF` (no worktree is registered in
# .git), the change from the working tree's tracked and untracked,
# unignored files. Editing the tree during a run changes nothing
# measured. Every run's output is kept in .bench_runs/<record>/<side>/
# (WORKLOAD.SEED.out and micro.PAIR.txt).
#
# A run that ends without a result line (it panicked or did not build)
# is renamed to .dead, left out of the record's statistics and of the
# comparison, and reported; the script then exits 1. A run that prints
# its result is kept whatever it reports, and bench compare counts its
# failed operations.
#
# The record holds, for each side, workload and end-to-end metric, the
# median, quartiles (the method bench compare uses) and run count; the
# same for each microbenchmark unit; GOMAXPROCS, nproc and go version;
# and each run's raw workload and result lines, so bench compare can be
# re-run from the record. With a ref, the script ends by printing the
# comparison, and the command that repeats it from the kept outputs.
#
# Environment: PAIRS (default 10), FIRST_SEED (default 1), WORKLOADS
# (default every workload of BENCHMARK.json), MICRO (default 1).
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
ref="${1:-}"
pairs="${PAIRS:-10}"
first="${FIRST_SEED:-1}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
workloads="${WORKLOADS:-$(sed -n 's/.*{"name": "\([a-z-]*\)", "why".*/\1/p' BENCHMARK.json)}"
micro_root='BenchmarkClockLoop|BenchmarkMutexSweep|BenchmarkPacket|BenchmarkCRC|BenchmarkMetrics|BenchmarkFault|BenchmarkTopoChainClock|BenchmarkPooledExecPhase|BenchmarkIdleFastForward'
micro_server='BenchmarkServerOpRoundTrip|BenchmarkServerSendRecvRoundTrip|BenchmarkServerBatchedSendRecv|BenchmarkServerSessionChurn'

date="$(date +%F)"
out="BENCH_${date}.json"
n=1
# A run directory without its record is an earlier run that was not
# committed; skip its name too, so no two runs share a directory.
while [ -e "$out" ] || [ -e ".bench_runs/${out%.json}" ]; do
    n=$((n + 1))
    out="BENCH_${date}.${n}.json"
done
runs="$root/.bench_runs/${out%.json}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
sides=change
mkdir -p "$work/change" "$runs/change"
git ls-files -co --exclude-standard -z |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -xf - -C "$work/change"
if [ -n "$ref" ]; then
    sides="parent change"
    parent_sha="$(git rev-parse --verify "$ref^{commit}")"
    mkdir -p "$work/parent" "$runs/parent"
    git archive "$parent_sha" | tar -xf - -C "$work/parent"
fi

# sides_of PAIR prints the sides of a pair in run order.
sides_of() {
    if [ -z "$ref" ]; then
        echo change
    elif [ $(($1 % 2)) -eq 1 ]; then
        echo parent change
    else
        echo change parent
    fi
}

# bury FILE renames the output of a run that ended without a result to
# .dead and reports it; the record and the comparison leave it out.
dead=""
bury() {
    local kept="${1%.*}.dead"
    mv "$1" "$kept"
    dead="$dead${dead:+, }\"${kept#"$root"/}\""
    echo "bench: ${1#"$root"/} ended without a result; kept as ${kept#"$root"/}" >&2
}

for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        seed=$((first + i - 1))
        for side in $(sides_of "$i"); do
            f="$runs/$side/$w.$(printf %02d "$seed").out"
            echo "$side $w seed $seed" >&2
            (cd "$work/$side" && bash bench/run.sh --workload "$w" --seed "$seed" \
                --seconds "$seconds" --trace 0) > "$f" || true
            awk 'NF { l = $0 } END { exit (l !~ /^[ \t]*[{]/) }' "$f" || bury "$f"
        done
    done
done

if [ "${MICRO:-1}" != 0 ]; then
    # Build each side's two test binaries once, then list the rows once:
    # every top-level benchmark either side has, as "PKGDIR NAME".
    # A side whose binaries do not build runs no row, and each of its
    # pairs is buried below.
    rows=""
    for side in $sides; do
        if (cd "$work/$side" &&
            go test -c -o "$work/$side.root.test" . &&
            go test -c -o "$work/$side.server.test" ./internal/server); then
            rows="$rows$("$work/$side.root.test" -test.list "$micro_root" | sed -n 's/^Benchmark/root &/p')
$("$work/$side.server.test" -test.list "$micro_server" | sed -n 's/^Benchmark/server &/p')
"
        else
            echo "bench: the $side microbenchmarks did not build" >&2
        fi
    done
    rows="$(printf '%s' "$rows" | sed '/^$/d' | sort -u)"
    for i in $(seq 1 "$pairs"); do
        failed=""
        echo "microbenchmarks, pair $i" >&2
        while read -r pkg name; do
            [ -n "$name" ] || continue
            sub=""
            [ "$pkg" = root ] || sub=/internal/server
            for side in $(sides_of "$i"); do
                f="$runs/$side/micro.$(printf %02d "$i").txt"
                (cd "$work/$side$sub" && "$work/$side.$pkg.test" -test.run '^$' \
                    -test.bench "^$name\$" -test.benchmem -test.count 1 < /dev/null) >> "$f" ||
                    failed="$failed $side"
            done
        done <<< "$rows"
        for side in $(sides_of "$i"); do
            case "$failed" in
            *" $side"*) bury "$runs/$side/micro.$(printf %02d "$i").txt" ;;
            esac
        done
    done
fi

# summarize SIDE prints one side's JSON object from its kept outputs.
summarize() {
    side="$1"
    set -- "$runs/$side"/*.out
    [ -e "$1" ] || set -- /dev/null
    micro="$work/$side.micro"
    cat "$runs/$side"/micro.*.txt > "$micro" 2>/dev/null || true
    awk -v microfile="$micro" '
      # stats prints the median, quartiles (the exclusive method of
      # Python statistics.quantiles, as bench compare computes them) and
      # count of the space-separated values in list.
      function stats(list,    v, n, i, j, t, m, q1, q3, med) {
        n = split(list, v, " ")
        for (i = 2; i <= n; i++)
          for (j = i; j > 1 && v[j-1] + 0 > v[j] + 0; j--) {
            t = v[j]; v[j] = v[j-1]; v[j-1] = t
          }
        med = (n % 2) ? v[(n+1)/2] : (v[n/2] + v[n/2+1]) / 2
        if (n == 1) { q1 = v[1]; q3 = v[1] }
        else { m = n + 1; q1 = quart(v, n, m, 1); q3 = quart(v, n, m, 3) }
        return sprintf("{\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g, \"n\": %d}", med, q1, q3, n)
      }
      function quart(v, n, m, k,    j, d) {
        j = int(k * m / 4)
        if (j > n - 1) j = n - 1
        if (j < 1) j = 1
        d = k * m - j * 4
        return (v[j] * (4 - d) + v[j+1] * d) / 4
      }
      function flush(    s, name, val) {
        if (head == "") return
        split(head, hf, " ")
        w = hf[2]
        if (!(w in seen)) { seen[w] = 1; order[nw++] = w }
        if (last !~ /^\{/) last = "null"
        raw[w] = raw[w] (raw[w] == "" ? "" : ",\n") \
          sprintf("        {\"workload\": \"%s\", \"result\": %s}", head, last)
        s = last
        while (match(s, /"[a-z0-9_.]+":\{"value":-?[0-9.]+([eE][-+]?[0-9]+)?/)) {
          name = substr(s, RSTART + 1, RLENGTH)
          sub(/".*/, "", name)
          val = substr(s, RSTART, RLENGTH)
          sub(/.*"value":/, "", val)
          key = w SUBSEP name
          if (!(key in vals)) { mk[w] = mk[w] " " name }
          vals[key] = vals[key] " " val
          s = substr(s, RSTART + RLENGTH)
        }
        head = ""; last = ""
      }
      FNR == 1 { flush(); if ($1 == "workload") head = $0 }
      NF > 0 { last = $0 }
      END {
        flush()
        while ((getline line < microfile) > 0) {
          if (line !~ /^Benchmark/) continue
          gsub(/[ \t]+/, " ", line)
          nf = split(line, f, " ")
          b = f[1]; sub(/-[0-9]+$/, "", b)
          if (!(b in bseen)) { bseen[b] = 1; border[nb++] = b }
          mraw = mraw (mraw == "" ? "" : ",\n") sprintf("      \"%s\"", line)
          for (i = 3; i < nf; i += 2) {
            u = f[i+1]
            key = b SUBSEP u
            if (!(key in mvals)) munits[b] = munits[b] "\t" u
            mvals[key] = mvals[key] " " f[i]
          }
        }
        printf "{\n    \"workloads\": {"
        for (i = 0; i < nw; i++) {
          w = order[i]
          printf "%s\n      \"%s\": {\n        \"metrics\": {", (i ? "," : ""), w
          n = split(substr(mk[w], 2), names, " ")
          for (j = 1; j <= n; j++)
            printf "%s\n          \"%s\": %s", (j > 1 ? "," : ""), names[j], stats(vals[w SUBSEP names[j]])
          printf "\n        },\n        \"runs\": [\n%s\n        ]\n      }", raw[w]
        }
        printf "\n    },\n    \"micro\": {"
        for (i = 0; i < nb; i++) {
          b = border[i]
          printf "%s\n      \"%s\": {", (i ? "," : ""), b
          n = split(substr(munits[b], 2), units, "\t")
          for (j = 1; j <= n; j++)
            printf "%s\"%s\": %s", (j > 1 ? ", " : ""), units[j], stats(mvals[b SUBSEP units[j]])
          printf "}"
        }
        printf "\n    },\n    \"micro_runs\": [\n%s\n    ]\n  }", mraw
      }
    ' "$@"
}

nproc="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
{
    printf '{\n  "date": "%s",\n' "$date"
    printf '  "gomaxprocs": %s,\n  "nproc": %s,\n' "${GOMAXPROCS:-$nproc}" "$nproc"
    printf '  "go_version": "%s",\n' "$(go version)"
    if [ -n "$ref" ]; then
        printf '  "parent": "%s",\n' "$parent_sha"
    fi
    printf '  "change": "working tree at %s",\n' "$(git rev-parse HEAD)"
    printf '  "seconds": %s,\n  "pairs": %s,\n  "first_seed": %s,\n' "$seconds" "$pairs" "$first"
    printf '  "runs_dir": ".bench_runs/%s",\n' "${out%.json}"
    printf '  "dead_runs": [%s],\n' "$dead"
    printf '  "sides": {'
    sep=""
    for side in $sides; do
        printf '%s\n  "%s": ' "$sep" "$side"
        summarize "$side"
        sep=","
    done
    printf '\n  }\n}\n'
} > "$out"
echo "wrote $out; run outputs in ${runs#"$root"/}" >&2

status=0
# bench compare reads the workload outputs; a microbenchmark-only record
# (WORKLOADS=' ') has none.
if [ -n "$ref" ] && [ -n "${workloads// /}" ]; then
    cmd="bash bench/run.sh compare ${runs#"$root"/}/parent/*.out -- ${runs#"$root"/}/change/*.out"
    (cd "$work/change" && bash bench/run.sh compare "$runs"/parent/*.out -- "$runs"/change/*.out) || status=$?
    echo "repeat the comparison from the repository root with:" >&2
    echo "  $cmd" >&2
fi
if [ -n "$dead" ]; then
    echo "bench: left out runs that ended without a result: $dead" >&2
    [ "$status" != 0 ] || status=1
fi
exit "$status"
