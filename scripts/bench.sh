#!/usr/bin/env bash
# Performance baseline: runs the mapper/simulator benchmarks from
# perf_bench_test.go and writes BENCH_core.json so mapper-speed
# regressions show up as a diffable artifact, not an anecdote.
#
#   scripts/bench.sh             # full run, writes BENCH_core.json
#   scripts/bench.sh -compare    # re-run and diff against BENCH_core.json
#                                # without overwriting it; exits 1 when any
#                                # benchmark regresses past tolerance
#   scripts/bench.sh -benchtime=100ms   # extra args forwarded to go test
#   scripts/bench.sh -count=5    # repeat each benchmark; the artifact
#                                # records the median as ns_per_op (and
#                                # B/op, allocs/op) plus ns_min/ns_max
#
# Compare mode checks all three recorded metrics, each with its own
# tolerance (time is noisy; allocation counts are nearly deterministic):
#   BENCH_TOLERANCE_PCT         ns/op      (default 30)
#   BENCH_BYTES_TOLERANCE_PCT   B/op       (default 50)
#   BENCH_ALLOCS_TOLERANCE_PCT  allocs/op  (default 25)
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="BENCH_core.json"
mode="write"
if [ "${1:-}" = "-compare" ]; then
    mode="compare"
    shift
    if [ ! -f "$baseline" ]; then
        echo "bench.sh: no $baseline baseline to compare against; run scripts/bench.sh first" >&2
        exit 1
    fi
fi

raw="$(mktemp)"
cur="$(mktemp)"
trap 'rm -f "$raw" "$cur"' EXIT

pattern='BenchmarkCoreMap|BenchmarkCoreMapPortfolio|BenchmarkPortfolioPruned|BenchmarkPortfolioUnpruned|BenchmarkMapCached|BenchmarkSimRun|BenchmarkVerifyRun|BenchmarkOracleCheck|BenchmarkStaticAnalyze|BenchmarkStrip'
# The explicit timeout replaces go test's 10-minute default, which a
# -count=5 run of the whole suite overshoots; a later -timeout in "$@"
# still wins.
echo "== go test -bench '$pattern' -run NONE -timeout 2h . $*"
go test -bench "$pattern" -benchmem -run NONE -timeout 2h . "$@" | tee "$raw"

# Parse the standard go-bench output lines:
#   BenchmarkCoreMap/FIR-8  123  9876543 ns/op  456 B/op  7 allocs/op
# The trailing -N GOMAXPROCS suffix is stripped so the artifact compares
# across machines with different core counts. With -count=N every
# benchmark prints N lines; each metric is recorded as the median of its
# runs (the lower middle one for even N), and ns_min/ns_max keep the
# spread next to it.
awk '
# median sorts a space-separated list numerically and returns its middle
# entry, leaving the extremes in the globals lo and hi.
function median(list,   v, n, i, j, x) {
    n = split(list, v, " ")
    for (i = 2; i <= n; i++) {
        x = v[i]
        for (j = i - 1; j >= 1 && v[j] + 0 > x + 0; j--) v[j + 1] = v[j]
        v[j + 1] = x
    }
    lo = v[1]; hi = v[n]
    return v[int((n + 1) / 2)]
}
/^Benchmark/ && /ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!(name in runs)) order[++names] = name
    runs[name]++
    iters[name] = iters[name] " " $2
    ns[name] = ns[name] " " $3
    b = "null"; a = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op")      b = $(i-1)
        if ($i == "allocs/op") a = $(i-1)
    }
    bytes[name] = bytes[name] " " b
    allocs[name] = allocs[name] " " a
}
END {
    print "{"
    print "  \"benchmarks\": ["
    for (k = 1; k <= names; k++) {
        name = order[k]
        it = median(iters[name])
        b = median(bytes[name])
        a = median(allocs[name])
        n = median(ns[name]); nmin = lo; nmax = hi
        printf "    {\"name\": \"%s\", \"runs\": %d, \"iterations\": %s, \"ns_per_op\": %s, \"ns_min\": %s, \"ns_max\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            name, runs[name], it, n, nmin, nmax, b, a, (k < names ? "," : "")
    }
    print "  ],"
    print "  \"count\": " names
    print "}"
}' "$raw" > "$cur"

count=$(grep -c '"name"' "$cur" || true)
if [ "$count" -eq 0 ]; then
    echo "bench.sh: no benchmark lines parsed" >&2
    exit 1
fi

if [ "$mode" = "write" ]; then
    cp "$cur" "$baseline"
    echo "wrote $baseline ($count benchmarks)"
    exit 0
fi

# Compare mode: join current metrics against the baseline by name. Both
# files are our own one-object-per-line JSON, so awk can parse them.
# Baselines written before the suffix-stripping change may still carry
# -N on their names; strip it from both sides when matching. A metric
# missing on either side (older "null" baselines) is skipped, not failed.
tol_ns="${BENCH_TOLERANCE_PCT:-30}"
tol_bytes="${BENCH_BYTES_TOLERANCE_PCT:-50}"
tol_allocs="${BENCH_ALLOCS_TOLERANCE_PCT:-25}"
# The obs-off gate: BenchmarkCoreMapObsOff must allocate exactly what the
# same run's BenchmarkCoreMap did (a nil recorder is free). The default 0%
# is exact on full bench runs; the 1x CI gate widens it because a GC can
# evict the arena pool between single iterations (see ci.sh).
tol_obsoff="${BENCH_OBSOFF_ALLOCS_TOLERANCE_PCT:-0}"
echo
echo "== compare vs $baseline (tolerance ns +${tol_ns}%, B/op +${tol_bytes}%, allocs/op +${tol_allocs}%, obs-off allocs +${tol_obsoff}%)"
awk -v tol_ns="$tol_ns" -v tol_bytes="$tol_bytes" -v tol_allocs="$tol_allocs" -v tol_obsoff="$tol_obsoff" '
function field(line, key,   v) {
    v = line
    if (!sub(".*\"" key "\": *", "", v)) return ""
    sub(/[,}].*/, "", v)
    return v
}
# check compares one metric; base/cur of "" or "null" skip the check. A
# zero baseline with a zero current value passes; any growth from zero is
# flagged (percentages are meaningless there).
function check(name, metric, b, c, tol,   delta, mark) {
    if (b == "" || b == "null" || c == "" || c == "null") return
    if (b + 0 == 0) {
        if (c + 0 == 0) return
        printf "%-42s %14s -> %14s %s  (from zero)  REGRESSION\n", name, b, c, metric
        bad++
        return
    }
    delta = 100.0 * (c - b) / b
    mark = ""
    if (delta > tol) { mark = "  REGRESSION"; bad++ }
    printf "%-42s %14s -> %14s %s  %+7.1f%%%s\n", name, b, c, metric, delta, mark
}
/"name"/ {
    name = field($0, "name")
    gsub(/^"|"$/, "", name)
    sub(/-[0-9]+$/, "", name)
    if (FNR == NR) {
        base_ns[name]     = field($0, "ns_per_op")
        base_bytes[name]  = field($0, "bytes_per_op")
        base_allocs[name] = field($0, "allocs_per_op")
        next
    }
    # Remember the numbers of this very run: the obs-off gate below
    # compares within the run, where allocation counts are exact, not
    # against a baseline written on a machine with different GC timing.
    cur_allocs[name] = field($0, "allocs_per_op")
    # The ObsOff benchmarks pin the disabled-instrumentation hot path: a
    # nil recorder must not add a single allocation over this same run
    # of the plain BenchmarkCoreMap.
    alt = name
    if (sub(/^BenchmarkCoreMapObsOff\//, "BenchmarkCoreMap/", alt) && (alt in cur_allocs)) {
        check(name " (obs-off)", "allocs/op", cur_allocs[alt], field($0, "allocs_per_op"), tol_obsoff)
    }
    # Same gate for the mapping-cache hit path: a cache built with a nil
    # recorder must not allocate more per warm hit than the plain run.
    alt = name
    if (sub(/^BenchmarkMapCachedObsOff\//, "BenchmarkMapCached/", alt) && (alt in cur_allocs)) {
        check(name " (obs-off)", "allocs/op", cur_allocs[alt], field($0, "allocs_per_op"), tol_obsoff)
    }
    if (!(name in base_ns)) {
        printf "%-42s %14s ns/op  (no baseline)\n", name, field($0, "ns_per_op")
        next
    }
    check(name, "ns/op    ", base_ns[name],     field($0, "ns_per_op"),     tol_ns)
    check(name, "B/op     ", base_bytes[name],  field($0, "bytes_per_op"),  tol_bytes)
    check(name, "allocs/op", base_allocs[name], field($0, "allocs_per_op"), tol_allocs)
}
END {
    if (bad) { printf "%d metric(s) regressed past tolerance\n", bad; exit 1 }
    print "no regressions past tolerance"
}' "$baseline" "$cur"
