#!/bin/sh
# bench.sh — benchmark evidence writer and gate.
#
# Runs six suites with -benchmem:
#
#   hotpath  — the steady-state prediction/acquisition benchmarks whose
#              zero-allocation budgets DESIGN.md §9 pins, the k★ fill of
#              a paper-size value pass (EvalRowRadial at n=184, d=12) and
#              of a fleet cell's (n=96, d=24), and one UPHES
#              expected-profit evaluation (16 scenarios)
#   linalg   — the large-n linear algebra: ExtendCols, n=4096
#              prediction and fantasy, and the paper-size factor
#              kernels: a Cholesky, an inverse, a forward and a back
#              solve at n=184
#   snapshot — the session checkpoint codec at n=1024 recorded cycles
#              (encode/decode ns and frame bytes)
#   fit      — the per-iteration LML objective cost (banded vs serial at
#              GOMAXPROCS 1 at n=1024, pooled small-n), its gradient half
#              at the paper day's n=184, d=12, the whole cold fit at
#              the paper day's n=184 (concurrent starts vs GOMAXPROCS 1),
#              the n=4096 fantasy-chain extension, and the resident factor
#              footprint at n=4096
#   async    — whole-engine virtual-throughput runs (evals-per-vhour) of
#              the batch-synchronous vs asynchronous protocols on a
#              heterogeneous-latency workload
#   scenario — rolling-horizon fleet throughput (days-per-minute of wall
#              time) serial vs member-parallel
#
# Every row written names its host: the GOMAXPROCS the benchmark ran
# under (from the name's -N suffix, 1 without one), the CPU from go
# test's "cpu:" line, the Go version, and the CPU probe's verdict
# ("avx2+fma" or "generic": whether the AVX2 bodies of the Cholesky
# sweep and the back-solve sweep, the inverse product, the Matérn radial
# and r² passes and the two gradient sums ran, DESIGN.md §9.5), so two
# files can be compared.
#
# Usage:
#   ./scripts/bench.sh          # 2 s per benchmark; rewrites BENCH_<suite>.json
#   ./scripts/bench.sh -check   # hotpath at 100x, the other suites at 1x;
#                               # writes nothing in the tree, enforces the gates
#
# Gates (-check):
#   - alloc budgets: Predict256 (a value-only PredictWithGrad),
#     PredictWithGrad256, EIGrad256, the value-only line-search trial
#     EIValueOnly256, the accepted-step pair EIAcceptedStep256 (a trial,
#     then its gradient on the trial's value pass) and the pooled small-n
#     fit objective FitLML128 hold 0 allocs/op (DESIGN.md §9). A
#     regression means a pooled workspace or destination-passing path
#     started allocating again. UPHESProfit,
#     the paper-size EvalRowRadial184, Cholesky184, Inverse184,
#     ForwardSolve184 and BackSolve184 and the fleet-size
#     EvalRowRadial96D24 run (presence only: a timing ratio flakes on a
#     shared host).
#   - snapshot: both codec benchmarks report frame-bytes, so the evidence
#     cannot go stale; the n=1024 decode holds ≤ 100 allocs/op (the
#     sectioned v3 layout lands at ~21 — more means a matrix path went
#     back through per-element JSON) and ≤ 6084544 ns/op, 40% of the v2
#     whole-JSON decode's 15.2 ms.
#   - fit: the banded parallel LML path is bit-identical to the serial
#     one (GOMAXPROCS 1 and every band threshold forced off), so it may
#     never cost more than 1.10× serial at n=1024;
#     the n=4096 factor footprint stays at one packed triangle,
#     n·(n+1)/2·8 = 67125248 bytes; the n=4096 fantasy chain, the n=184
#     LML gradient half and both n=184 whole-fit benchmarks run (presence
#     only: a timing ratio of single iterations flakes on a shared host).
#   - async: the asynchronous protocol completes at least as many
#     evaluations per virtual hour as the batch-synchronous one — a
#     property of the schedules on the virtual clock, not of the host.
#   - scenario: with GOMAXPROCS > 1 the member-parallel fleet reaches at
#     least serial ÷ 1.10 days per minute in the median of fleetRounds
#     separate go test runs of the pair, serial and parallel alternating:
#     one single-iteration pair swings from 0.87 to 2.05 on a quiet
#     2-core host. At GOMAXPROCS = 1 only the presence of both metrics is
#     checked.
set -eu

cd "$(dirname "$0")/.."

case "${1:-}" in
"") hot=2s other=2s check=0 ;;
-check) hot=100x other=1x check=1 ;;
*)
    echo "usage: $0 [-check]" >&2
    exit 2
    ;;
esac

raw=$(mktemp -d)
trap 'rm -rf "$raw"' EXIT

# bench SUITE BENCHTIME PATTERN PKG...: appends the benchmark output to
# the suite's raw file.
bench() {
    suite=$1 benchtime=$2 pattern=$3
    shift 3
    go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" "$@" >>"$raw/$suite"
}

# Anchored names: the LargeN linalg benchmarks also contain "Predict" /
# "Fantasize" and must not leak into the hotpath suite.
bench hotpath "$hot" 'Predict256$|PredictWithGrad256$|PredictJointQ8$|Fantasize256$|EIGrad|EIValueOnly|EIAcceptedStep|QEIBatch|UPHESProfit$|EvalRowRadial184$|EvalRowRadial96D24$' \
    ./internal/gp/ ./internal/acq/ ./internal/uphes/ ./internal/kernel/
bench linalg "$other" 'ExtendCols1024$|Cholesky184$|Inverse184$|ForwardSolve184$|BackSolve184$' ./internal/mat/
bench linalg "$other" 'LargeN' ./internal/gp/
bench snapshot "$other" 'SnapshotEncode1024$|SnapshotDecode1024$' ./internal/session/snapshot/
# The fantasy bench also runs in the linalg suite.
bench fit "$other" 'FitLML128$|FitLML1024$|FitLML1024Serial$|LMLGrad184$|FitFactorBytes4096$|LargeNFantasize4096$|FitHyper184$|FitHyper184Serial$' ./internal/gp/
bench async "$other" 'VirtualThroughput$' ./internal/core/
bench scenario "$other" 'FleetSerial$|FleetParallel$' ./internal/scenario/
# The fleet gate's rounds: each is a go test run of its own.
fleetRounds=7
if [ "$check" = 1 ]; then
    for round in $(seq 2 "$fleetRounds"); do
        go test -run '^$' -bench 'FleetSerial$|FleetParallel$' -benchmem -benchtime 1x \
            ./internal/scenario/ >"$raw/fleet.$round"
    done
fi

suites="hotpath linalg snapshot fit async scenario"

if [ "$check" = 0 ]; then
    goversion=$(go env GOVERSION)
    simd=$(go test -count 1 -run '^TestVerdictNamesProbe$' -v ./internal/simd/ | awk '/verdict: / { print $NF }')
    if [ -z "$simd" ]; then
        echo "bench.sh: the CPU probe reported no verdict" >&2
        exit 1
    fi
    for suite in $suites; do
        awk -v gover="$goversion" -v simd="$simd" '
        BEGIN { print "["; first = 1 }
        /^cpu: / { cpu = substr($0, 6); gsub(/["\\]/, "", cpu) }
        /^Benchmark/ {
            name = $1
            procs = 1
            if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
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
            printf ", \"gomaxprocs\": %s, \"cpu\": \"%s\", \"go\": \"%s\", \"simd\": \"%s\"", procs, cpu, gover, simd
            printf "}"
        }
        END { print "\n]" }
        ' "$raw/$suite" >"BENCH_$suite.json"
    done
    echo "bench.sh: wrote BENCH_<suite>.json for $suites"
    exit 0
fi

# metric SUITE BENCH UNIT prints the value BenchmarkBENCH reported in UNIT
# (ns/op, allocs/op, frame-bytes, ...) in SUITE's output, or nothing.
metric() {
    awk -v n="Benchmark$2" -v u="$3" \
        '$1 ~ "^"n"(-[0-9]+)?$" { for (i = 2; i < NF; i++) if ($(i+1) == u) print $i }' "$raw/$1"
}

fail=0
bad() {
    echo "bench.sh: FAIL: $*" >&2
    fail=1
}

# present SUITE BENCH UNIT: the benchmark ran and reported UNIT.
present() {
    if [ -z "$(metric "$1" "$2" "$3")" ]; then
        bad "$2 did not run or did not report $3"
    fi
}

# at_most SUITE BENCH UNIT MAX: BENCH's UNIT is at most MAX.
at_most() {
    v=$(metric "$1" "$2" "$3")
    if [ -z "$v" ]; then
        bad "$2 did not run or did not report $3"
    elif awk -v v="$v" -v m="$4" 'BEGIN { exit !(v > m) }'; then
        bad "$2 reports $v $3, above its budget of $4"
    fi
}

# ratio_at_most SUITE A B UNIT R: A's UNIT is at most R times B's.
ratio_at_most() {
    va=$(metric "$1" "$2" "$4")
    vb=$(metric "$1" "$3" "$4")
    if [ -z "$va" ] || [ -z "$vb" ]; then
        bad "$2 or $3 did not run or did not report $4"
    elif awk -v a="$va" -v b="$vb" -v r="$5" 'BEGIN { exit !(a > r * b) }'; then
        bad "$2 ($va $4) exceeds $5 × $3 ($vb $4)"
    fi
}

for name in Predict256 PredictWithGrad256 EIGrad256 EIValueOnly256 EIAcceptedStep256; do
    at_most hotpath "$name" allocs/op 0
done
present hotpath UPHESProfit ns/op
present hotpath EvalRowRadial184 ns/op
present hotpath EvalRowRadial96D24 ns/op
present linalg Cholesky184 ns/op
present linalg Inverse184 ns/op
present linalg ForwardSolve184 ns/op
present linalg BackSolve184 ns/op
at_most fit FitLML128 allocs/op 0

present snapshot SnapshotEncode1024 frame-bytes
present snapshot SnapshotDecode1024 frame-bytes
at_most snapshot SnapshotDecode1024 allocs/op 100
at_most snapshot SnapshotDecode1024 ns/op 6084544

ratio_at_most fit FitLML1024 FitLML1024Serial ns/op 1.10
at_most fit FitFactorBytes4096 factor-bytes 67125248
present fit LargeNFantasize4096 ns/op
present fit LMLGrad184 ns/op
present fit FitHyper184 ns/op
present fit FitHyper184Serial ns/op

ratio_at_most async SyncVirtualThroughput AsyncVirtualThroughput evals-per-vhour 1

# Go appends a -N GOMAXPROCS suffix to benchmark names only when N > 1,
# so a bare name means a single-core run.
present scenario FleetSerial days-per-minute
present scenario FleetParallel days-per-minute
procs=$(awk '$1 ~ /^BenchmarkFleetParallel-[0-9]+$/ { sub(/^.*-/, "", $1); print $1 }' "$raw/scenario")
if [ -n "$procs" ] && [ "$procs" -gt 1 ]; then
    # Round 1 is the scenario suite's own run; the median of the rounds'
    # parallel/serial ratios must reach 1 ÷ 1.10.
    cp "$raw/scenario" "$raw/fleet.1"
    ratios=""
    for round in $(seq 1 "$fleetRounds"); do
        s=$(metric "fleet.$round" FleetSerial days-per-minute)
        p=$(metric "fleet.$round" FleetParallel days-per-minute)
        if [ -z "$s" ] || [ -z "$p" ]; then
            bad "fleet round $round did not report days-per-minute"
            continue
        fi
        ratios="$ratios $(awk -v p="$p" -v s="$s" 'BEGIN { printf "%.4f", p / s }')"
    done
    median=$(printf '%s\n' $ratios | sort -n | awk '{ v[NR] = $1 } END { if (NR) print v[int((NR + 1) / 2)] }')
    if [ -z "$median" ]; then
        bad "no fleet round reported a ratio"
    elif awk -v m="$median" 'BEGIN { exit !(m * 1.10 < 1) }'; then
        bad "median FleetParallel/FleetSerial ratio $median over$ratios is below 1 ÷ 1.10"
    else
        echo "bench.sh: fleet parallel/serial ratios$ratios, median $median"
    fi
fi

if [ "$fail" = 1 ]; then
    exit 1
fi
echo "bench.sh: alloc, snapshot, fit, async and fleet gates hold"
