#!/bin/sh
# bench.sh — hot-path benchmark runner and evidence writer.
#
# Runs two suites with -benchmem and writes JSON summaries (name, ns/op,
# B/op, allocs/op per benchmark) for checking in as evidence alongside
# performance-sensitive changes:
#
#   hotpath  — the steady-state prediction/acquisition benchmarks whose
#              zero-allocation budgets DESIGN.md §9 pins -> BENCH_hotpath.json
#   linalg   — the large-n linear-algebra suite (blocked MulInto,
#              ExtendCols, batched k★ fills, n=4096 prediction)
#              -> BENCH_linalg.json
#   snapshot — the session checkpoint codec at n=1024 recorded cycles
#              (encode/decode ns and frame bytes) -> BENCH_snapshot.json
#   fit      — the per-iteration LML objective cost (parallel vs forced-
#              serial at n=1024, pooled small-n), the n=4096 fantasy-chain
#              extension, and the resident factor footprint at n=4096
#              (factor-bytes) -> BENCH_fit.json
#   async    — whole-engine virtual-throughput runs (evals-per-vhour) of
#              the batch-synchronous vs asynchronous protocols on a
#              heterogeneous-latency workload -> BENCH_async.json
#   scenario — rolling-horizon fleet throughput (days-per-minute of wall
#              time) serial vs member-parallel -> BENCH_scenario.json
#
# Usage:
#   ./scripts/bench.sh             # full-accuracy run -> all JSON files
#   ./scripts/bench.sh -check     # also enforce the budgets/floors below
#
# Environment:
#   BENCHTIME          hotpath -benchtime value (default 2s; use 100x in gates)
#   BENCHTIME_LINALG   linalg -benchtime value (default 2s; the gate uses 1x
#                      because the 1024³ matmuls run ~0.5 s per iteration)
#   BENCHTIME_SNAPSHOT snapshot -benchtime value (default 2s; gates use 1x)
#   BENCHTIME_FIT      fit -benchtime value (default 2s; the gate uses 1x
#                      because one LML evaluation at n=1024 runs ~0.5 s)
#   BENCHTIME_ASYNC    async -benchtime value (default 2s; each iteration
#                      is one full budget-bounded engine run)
#   BENCHTIME_SCENARIO scenario -benchtime value (default 2s; each
#                      iteration is one full in-process fleet run)
#   OUT                hotpath JSON path (default BENCH_hotpath.json)
#   OUT_LINALG         linalg JSON path (default BENCH_linalg.json)
#   OUT_SNAPSHOT       snapshot JSON path (default BENCH_snapshot.json)
#   OUT_FIT            fit JSON path (default BENCH_fit.json)
#   OUT_ASYNC          async JSON path (default BENCH_async.json)
#   OUT_SCENARIO       scenario JSON path (default BENCH_scenario.json)
#
# Checks (enforced with -check):
#   - alloc budgets: the zero-allocation contract of DESIGN.md §9. A
#     regression here means a pooled workspace or destination-passing
#     path started allocating again.
#   - linalg floor: BenchmarkMulInto1024 must not exceed 1.10× the naive
#     ikj reference (BenchmarkMulIntoNaive1024), so the blocked dispatch
#     can never regress below the loop it replaced.
#   - async floor: the asynchronous protocol must complete at least as
#     many evaluations per virtual hour as the batch-synchronous one on
#     the heterogeneous-latency workload — the paper's motivating claim;
#     the virtual clock makes the metric deterministic up to sub-ms
#     measured overhead, so a violation means the async schedule
#     regressed, not noise.
#   - scenario floor: with GOMAXPROCS > 1, the member-parallel fleet must
#     complete at least as many days per minute as the serial fleet
#     (members are independent sessions, so parallelism is pure speedup;
#     10% slack absorbs scheduler noise). At GOMAXPROCS = 1 the floor is
#     skipped — both runs share one core — but both benchmarks must still
#     run and report the metric.
#   - fit floors: the banded parallel fit path must not exceed 1.10× the
#     forced-serial path at the same n (bit-identity makes the branches
#     interchangeable, so parallel dispatch may never cost more than it
#     saves); the pooled small-n objective must stay at 0 allocs/op; and
#     the n=4096 factor footprint must stay at the one packed triangle,
#     n·(n+1)/2·8 = 67125248 bytes, so a second layout cannot return
#     unnoticed.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
BENCHTIME_LINALG="${BENCHTIME_LINALG:-2s}"
BENCHTIME_SNAPSHOT="${BENCHTIME_SNAPSHOT:-2s}"
BENCHTIME_FIT="${BENCHTIME_FIT:-2s}"
BENCHTIME_ASYNC="${BENCHTIME_ASYNC:-2s}"
BENCHTIME_SCENARIO="${BENCHTIME_SCENARIO:-2s}"
OUT="${OUT:-BENCH_hotpath.json}"
OUT_LINALG="${OUT_LINALG:-BENCH_linalg.json}"
OUT_SNAPSHOT="${OUT_SNAPSHOT:-BENCH_snapshot.json}"
OUT_FIT="${OUT_FIT:-BENCH_fit.json}"
OUT_ASYNC="${OUT_ASYNC:-BENCH_async.json}"
OUT_SCENARIO="${OUT_SCENARIO:-BENCH_scenario.json}"
CHECK=0
if [ "${1:-}" = "-check" ]; then
    CHECK=1
fi

raw=$(mktemp)
rawlin=$(mktemp)
rawsnap=$(mktemp)
rawfit=$(mktemp)
rawasync=$(mktemp)
rawscen=$(mktemp)
trap 'rm -f "$raw" "$rawlin" "$rawsnap" "$rawfit" "$rawasync" "$rawscen"' EXIT

# Anchored names: the LargeN linalg benchmarks also contain "Predict" /
# "Fantasize" and must not leak into the hotpath suite.
go test -run '^$' \
    -bench 'Predict256$|PredictWithGrad256$|PredictJointQ8$|Fantasize256$|EIEval|EIGrad|QEIBatch' \
    -benchmem -benchtime "$BENCHTIME" ./internal/gp/ ./internal/acq/ >"$raw"

go test -run '^$' -bench 'MulInto|ExtendCols1024$|EvalRowFill' \
    -benchmem -benchtime "$BENCHTIME_LINALG" ./internal/mat/ ./internal/kernel/ >"$rawlin"
go test -run '^$' -bench 'LargeN' \
    -benchmem -benchtime "$BENCHTIME_LINALG" ./internal/gp/ >>"$rawlin"

go test -run '^$' -bench 'SnapshotEncode1024$|SnapshotDecode1024$' \
    -benchmem -benchtime "$BENCHTIME_SNAPSHOT" ./internal/session/snapshot/ >"$rawsnap"

# The fit suite: per-iteration LML objective cost plus the factor
# footprint and fantasy-chain extension at n=4096 (the fantasy bench also
# runs in the linalg suite).
go test -run '^$' -bench 'FitLML128$|FitLML1024$|FitLML1024Serial$|FitFactorBytes4096$|LargeNFantasize4096$' \
    -benchmem -benchtime "$BENCHTIME_FIT" ./internal/gp/ >"$rawfit"

# The async suite: full budget-bounded engine runs under both protocols
# on the same heterogeneous-latency workload, reporting evals-per-vhour.
go test -run '^$' -bench 'VirtualThroughput$' \
    -benchmem -benchtime "$BENCHTIME_ASYNC" ./internal/core/ >"$rawasync"

# The scenario suite: full in-process rolling-horizon fleet runs, serial
# vs member-parallel, reporting days-per-minute of wall time.
go test -run '^$' -bench 'FleetSerial$|FleetParallel$' \
    -benchmem -benchtime "$BENCHTIME_SCENARIO" ./internal/scenario/ >"$rawscen"

tojson() {
    awk '
    BEGIN { print "["; first = 1 }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix if present
        ns = ""; bytes = ""; allocs = ""; frame = ""; factor = ""; vhour = ""; dpm = ""
        for (i = 2; i <= NF; i++) {
            if ($(i+1) == "ns/op") ns = $i
            if ($(i+1) == "B/op") bytes = $i
            if ($(i+1) == "allocs/op") allocs = $i
            if ($(i+1) == "frame-bytes") frame = $i
            if ($(i+1) == "factor-bytes") factor = $i
            if ($(i+1) == "evals-per-vhour") vhour = $i
            if ($(i+1) == "days-per-minute") dpm = $i
        }
        if (ns == "") next
        if (!first) print ","
        first = 0
        printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
            name, ns, (bytes == "" ? 0 : bytes), (allocs == "" ? 0 : allocs)
        if (frame != "") printf ", \"frame_bytes\": %s", frame
        if (factor != "") printf ", \"factor_bytes\": %s", factor
        if (vhour != "") printf ", \"evals_per_vhour\": %s", vhour
        if (dpm != "") printf ", \"days_per_minute\": %s", dpm
        printf "}"
    }
    END { print "\n]" }
    ' "$1"
}

tojson "$raw" >"$OUT"
tojson "$rawlin" >"$OUT_LINALG"
tojson "$rawsnap" >"$OUT_SNAPSHOT"
tojson "$rawfit" >"$OUT_FIT"
tojson "$rawasync" >"$OUT_ASYNC"
tojson "$rawscen" >"$OUT_SCENARIO"

echo "bench.sh: wrote $OUT, $OUT_LINALG, $OUT_SNAPSHOT, $OUT_FIT, $OUT_ASYNC and $OUT_SCENARIO"

if [ "$CHECK" = "1" ]; then
    # name:max_allocs_per_op pairs pinned by the hot-path contract.
    budgets="BenchmarkPredict256:0 BenchmarkPredictWithGrad256:0 BenchmarkEIEval256:0 BenchmarkEIGrad256:0"
    fail=0
    for budget in $budgets; do
        name=${budget%%:*}
        max=${budget##*:}
        got=$(awk -v n="$name" '$1 ~ "^"n"(-[0-9]+)?$" { for (i=2;i<=NF;i++) if ($(i+1)=="allocs/op") print $i }' "$raw")
        if [ -z "$got" ]; then
            echo "bench.sh: FAIL: benchmark $name did not run" >&2
            fail=1
        elif [ "$got" -gt "$max" ]; then
            echo "bench.sh: FAIL: $name allocates $got/op, budget $max" >&2
            fail=1
        fi
    done

    # Linalg floor: the blocked dispatch must not run slower than the
    # naive loop it replaced (allow 10% measurement noise).
    getns() {
        awk -v n="$1" '$1 ~ "^"n"(-[0-9]+)?$" { for (i=2;i<=NF;i++) if ($(i+1)=="ns/op") print $i }' "$rawlin"
    }
    naive=$(getns BenchmarkMulIntoNaive1024)
    tiled=$(getns BenchmarkMulInto1024)
    if [ -z "$naive" ] || [ -z "$tiled" ]; then
        echo "bench.sh: FAIL: MulInto floor benchmarks did not run" >&2
        fail=1
    elif awk -v t="$tiled" -v n="$naive" 'BEGIN { exit !(t > 1.10 * n) }'; then
        echo "bench.sh: FAIL: MulInto1024 ($tiled ns/op) regressed past 1.10x naive ($naive ns/op)" >&2
        fail=1
    fi

    # Snapshot codec evidence: both benchmarks must have run and reported
    # the frame size, so BENCH_snapshot.json can never silently go stale.
    for b in BenchmarkSnapshotEncode1024 BenchmarkSnapshotDecode1024; do
        frame=$(awk -v n="$b" '$1 ~ "^"n"(-[0-9]+)?$" { for (i=2;i<=NF;i++) if ($(i+1)=="frame-bytes") print $i }' "$rawsnap")
        if [ -z "$frame" ]; then
            echo "bench.sh: FAIL: $b did not run or did not report frame-bytes" >&2
            fail=1
        fi
    done

    # Snapshot decode floors (format v3, binary trace sections): the
    # n=1024 decode must hold at most 100 allocs/op (the sectioned layout
    # lands at ~21 — a regression here means a matrix path went back
    # through per-element JSON) and at most 40% of the v2 whole-JSON
    # decode's 15.2 ms (6084544 ns; v3 measures ~0.23 ms, so the ceiling
    # is generous to host noise while still refusing a fallback to JSON).
    getsnap() {
        awk -v n="BenchmarkSnapshotDecode1024" -v f="$1" \
            '$1 ~ "^"n"(-[0-9]+)?$" { for (i=2;i<=NF;i++) if ($(i+1)==f) print $i }' "$rawsnap"
    }
    decallocs=$(getsnap "allocs/op")
    decns=$(getsnap "ns/op")
    if [ -n "$decallocs" ] && [ "$decallocs" -gt 100 ]; then
        echo "bench.sh: FAIL: SnapshotDecode1024 allocates $decallocs/op, budget 100" >&2
        fail=1
    fi
    if [ -n "$decns" ] && awk -v d="$decns" 'BEGIN { exit !(d > 6084544) }'; then
        echo "bench.sh: FAIL: SnapshotDecode1024 ($decns ns/op) exceeds 40% of the v2 JSON baseline (6084544 ns)" >&2
        fail=1
    fi

    # Fit floors. The banded parallel LML path is bit-identical to the
    # forced-serial path, so it may be chosen purely on speed — and must
    # therefore never cost more than 1.10× serial (inline dispatch at one
    # worker makes the two coincide up to noise on a single-core host).
    getfitns() {
        awk -v n="$1" '$1 ~ "^"n"(-[0-9]+)?$" { for (i=2;i<=NF;i++) if ($(i+1)=="ns/op") print $i }' "$rawfit"
    }
    fitpar=$(getfitns BenchmarkFitLML1024)
    fitser=$(getfitns BenchmarkFitLML1024Serial)
    if [ -z "$fitpar" ] || [ -z "$fitser" ]; then
        echo "bench.sh: FAIL: FitLML1024 floor benchmarks did not run" >&2
        fail=1
    elif awk -v p="$fitpar" -v s="$fitser" 'BEGIN { exit !(p > 1.10 * s) }'; then
        echo "bench.sh: FAIL: FitLML1024 ($fitpar ns/op) regressed past 1.10x serial ($fitser ns/op)" >&2
        fail=1
    fi

    # The pooled fit workspace holds the small-n objective at zero
    # steady-state allocations (the in-process pin is
    # TestFitObjectiveAllocs; this keeps the checked-in evidence honest).
    fitallocs=$(awk '$1 ~ "^BenchmarkFitLML128(-[0-9]+)?$" { for (i=2;i<=NF;i++) if ($(i+1)=="allocs/op") print $i }' "$rawfit")
    if [ -z "$fitallocs" ]; then
        echo "bench.sh: FAIL: BenchmarkFitLML128 did not run" >&2
        fail=1
    elif [ "$fitallocs" -gt 0 ]; then
        echo "bench.sh: FAIL: FitLML128 allocates $fitallocs/op, budget 0" >&2
        fail=1
    fi

    # Packed factor footprint at n=4096: one packed lower triangle,
    # n·(n+1)/2·8 = 67125248 B. Anything above it means the factor holds
    # a second copy of itself again.
    factor=$(awk '$1 ~ "^BenchmarkFitFactorBytes4096(-[0-9]+)?$" { for (i=2;i<=NF;i++) if ($(i+1)=="factor-bytes") print $i }' "$rawfit")
    if [ -z "$factor" ]; then
        echo "bench.sh: FAIL: BenchmarkFitFactorBytes4096 did not run or did not report factor-bytes" >&2
        fail=1
    elif awk -v f="$factor" 'BEGIN { exit !(f > 67125248) }'; then
        echo "bench.sh: FAIL: n=4096 factor footprint $factor B exceeds the packed triangle (67125248 B)" >&2
        fail=1
    fi

    # The fantasy-chain bench must be present in the fit evidence so the
    # extension cost can never silently go stale.
    if [ -z "$(getfitns BenchmarkLargeNFantasize4096)" ]; then
        echo "bench.sh: FAIL: BenchmarkLargeNFantasize4096 did not run in the fit suite" >&2
        fail=1
    fi

    # Async throughput floor: the asynchronous protocol must complete at
    # least as many evaluations per virtual hour as the batch-synchronous
    # schedule it replaces. The virtual clock is simulated, so this is a
    # property of the schedules, not of the host.
    getvhour() {
        awk -v n="$1" '$1 ~ "^"n"(-[0-9]+)?$" { for (i=2;i<=NF;i++) if ($(i+1)=="evals-per-vhour") print $i }' "$rawasync"
    }
    syncv=$(getvhour BenchmarkSyncVirtualThroughput)
    asyncv=$(getvhour BenchmarkAsyncVirtualThroughput)
    if [ -z "$syncv" ] || [ -z "$asyncv" ]; then
        echo "bench.sh: FAIL: virtual-throughput benchmarks did not run" >&2
        fail=1
    elif awk -v a="$asyncv" -v s="$syncv" 'BEGIN { exit !(a < s) }'; then
        echo "bench.sh: FAIL: async throughput ($asyncv evals/vhour) fell below sync ($syncv evals/vhour)" >&2
        fail=1
    fi

    # Scenario fleet floor: member-parallel days-per-minute must hold at
    # or above serial (10% slack) whenever the run actually had more than
    # one core. Go appends a -N GOMAXPROCS suffix to benchmark names only
    # when N > 1, so a bare name means a single-core host and the floor
    # degrades to presence checks.
    getdpm() {
        awk -v n="$1" '$1 ~ "^"n"(-[0-9]+)?$" { for (i=2;i<=NF;i++) if ($(i+1)=="days-per-minute") print $i }' "$rawscen"
    }
    serdpm=$(getdpm BenchmarkFleetSerial)
    pardpm=$(getdpm BenchmarkFleetParallel)
    if [ -z "$serdpm" ] || [ -z "$pardpm" ]; then
        echo "bench.sh: FAIL: fleet throughput benchmarks did not run or did not report days-per-minute" >&2
        fail=1
    else
        procs=$(awk '$1 ~ /^BenchmarkFleetParallel-[0-9]+$/ { sub(/^.*-/, "", $1); print $1 }' "$rawscen")
        if [ -n "$procs" ] && [ "$procs" -gt 1 ]; then
            if awk -v p="$pardpm" -v s="$serdpm" 'BEGIN { exit !(p * 1.10 < s) }'; then
                echo "bench.sh: FAIL: parallel fleet ($pardpm days/min) fell below serial ($serdpm days/min) at GOMAXPROCS=$procs" >&2
                fail=1
            fi
        fi
    fi

    if [ "$fail" = "1" ]; then
        exit 1
    fi
    echo "bench.sh: alloc budgets, linalg floor, snapshot, fit, async-throughput and fleet evidence hold"
fi
