#!/bin/sh
# check.sh — the single local/CI verification gate (tier-1+).
#
# Runs, in order: formatting, vet (of the default build, whose assembly
# stubs asmdecl checks, and of the purego build), build, the project's
# own invariant linter (cmd/pbolint), the full test suite on the default
# build (the AVX2 bodies wherever the CPU probe selects them), the
# portable-path pass (the vector bodies' Go loops under the purego tag,
# against the same golden traces, paper digests and snapshot frame
# digests), the full test suite under the race detector, a named re-run
# of the bit-identity property tests for the parallel linear-algebra
# paths (still under -race), a named re-run of the kill-and-resume
# determinism tests for the session/serving stack and of the ask/tell
# protocol they rest on (still under -race; each named group fails if a
# listed name matches no test), 10 s fuzz runs of the prediction
# workspace's value-pass reuse, of the snapshot frame decoder, of the
# session spec, of the import bundle and of every vector body against
# its Go oracle, the hot-path allocation-regression tests without the
# race detector (alloc counts are only meaningful uninstrumented), a
# single-iteration pass over every benchmark so bench code cannot rot
# uncompiled, and one fast `bench.sh -check` pass that enforces the
# zero-allocation budgets of DESIGN.md §9 and the snapshot, fit, async
# and fleet gates. Any failure stops the gate with a nonzero exit.
#
# Every -race run builds with the purego tag: the race detector does not
# see loads and stores made inside assembly, so the portable Go loops
# keep the Cholesky sweep, the inverse product, the radial and r² passes
# and the two gradient sums under its eye (DESIGN.md §9.5).
#
# Usage: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

# named_race_group NAMES PKG...: runs the tests NAMES (a '|'-separated
# -run alternation) in PKG... under -race. `go test -run 'A|B'` exits 0
# even when a listed name no longer matches any test, which would drop
# that contract from the gate unnoticed, so every name is first checked
# against `go test -list` over the same packages.
named_race_group() {
    names=$1
    shift
    # Test names hold no whitespace; the per-package "ok" lines do.
    listed=$(go test -tags purego -list . "$@")
    missing=""
    for name in $(printf '%s\n' "$names" | tr '|' ' '); do
        if ! printf '%s\n' "$listed" | grep -v '[[:space:]]' | grep -Eq -- "$name"; then
            missing="$missing $name"
        fi
    done
    if [ -n "$missing" ]; then
        echo "check.sh: named tests match no test in $*:$missing" >&2
        exit 1
    fi
    go test -race -tags purego -run "$names" -count 1 "$@"
}

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...
go vet -tags purego ./...

echo "== go build ./..."
go build ./...

echo "== pbolint ./..."
go run ./cmd/pbolint -json ./... > pbolint_report.json
go run ./cmd/pbolint ./...

echo "== pbolint suppression budget"
# The waiver surface may only shrink without a deliberate budget bump:
# every //lint:ignore directive is inventoried, and the count is held
# against the checked-in baseline. Growing it means editing
# scripts/lint_budget.txt in the same change, with the new waiver's
# reason in the diff.
budget=$(cat scripts/lint_budget.txt)
live=$(go run ./cmd/pbolint -suppressions ./... | wc -l | tr -d ' ')
if [ "$live" -gt "$budget" ]; then
    echo "pbolint: $live suppressions exceed the budget of $budget;" >&2
    echo "  fix the findings or bump scripts/lint_budget.txt deliberately" >&2
    go run ./cmd/pbolint -suppressions ./... >&2
    exit 1
fi
echo "suppressions: $live of $budget budgeted"

echo "== go test ./... (default build)"
# The build that ships: on an AVX2+FMA amd64 host every test here runs
# against the vector bodies, including their oracles, the golden traces,
# the paper digests and the tests that fail when the probe or the radial
# pass's self-check falls back silently.
go test -count 1 ./...

echo "== portable path: mat, kernel, gp, golden traces, paper and frame digests under -tags purego"
# The Go loops the AVX2 bodies replace must keep every bit: the same
# golden traces, paper-workload digests and snapshot frame digests hold
# on both paths.
go test -tags purego -count 1 ./internal/mat/ ./internal/kernel/ ./internal/gp/
go test -tags purego -count 1 -run '^(TestPaperStrategyTracesGolden|TestScenarioGoldenTraceDeterminism|TestPaperWorkloadDigests|TestSnapshotFrameDigests)$' \
    ./internal/strategy/ ./internal/scenario/ ./internal/session/ .

echo "== go test -race ./... (purego)"
go test -race -tags purego ./...

echo "== bit-identity property tests under -race"
# Redundant with the full -race sweep above, but named explicitly so the
# parallel linear-algebra contracts cannot be silently dropped from the
# gate: the extension's input contract, concurrent solves on one factor
# vs serial, and the unbounded-pool goroutine clamp.
named_race_group \
    'TestExtendColsMatchesExtend|TestConcurrentSolvesMatchSerial|TestEvalBatchUnboundedClampsGoroutines' \
    ./internal/mat/ ./internal/parallel/

echo "== fit-path bit-identity property tests under -race"
# The fit-path scaling contracts (DESIGN.md §9): packed factorize/solve/
# inverse/extension vs the dense reference DAG, solves down an extension
# chain, in-place refactorization, the banded parallel Gram / gradient /
# inverse fills vs serial at GOMAXPROCS 1 and 8, pooled fit-workspace
# reuse, and the LML with its kept radial terms vs the per-pair
# reference. The process-wide helper budget rides in the same group:
# nested fan-outs run every index once and never lend more than
# GOMAXPROCS-1 helpers, a reserved budget runs fan-outs on their caller,
# cancellation starts no index, ForEach keeps waiting workers in flight at
# GOMAXPROCS 1; concurrent multi-starts, hyperparameter starts and the
# scenario cell's two GPs are bit-identical to their serial references;
# and a fleet reports the same bits at Parallel 1 and 2 while holding its
# members' share of the budget. The value-only contract rides here too
# (DESIGN.md §9): the inverse's four-chain product equals the per-cell
# dot products; L-BFGS takes the same steps whether line-search trials
# skip the gradient or not, asking for one only at accepted points; the
# fit's gradient request reuses a value pass only at its exact params and
# data; and PredictWithGrad, the feasibility model and every
# single-point criterion return the full call's bits value-only.
# The two bit-identical caches ride here as well: a gradient request that
# reuses a value-only PredictWithGrad pass, and the UPHES plant's memo
# of its head powers, each equal to a fresh computation; so do a
# non-finite Cholesky diagonal and a NaN fit hyperparameter, which must
# fail at once.
named_race_group \
    'TestPackedFactorizeMatchesDense|TestPackedSolvesMatchDense|TestPackedSolveMatAndInverseMatchDense|TestPackedExtendMatchesDenseReference|TestExtendChainSolvesMatchDense|TestInverseIntoParallelBitIdentity|TestInverseProductMatchesPerCell|TestRefactorizeMatchesNew|TestGramIntoMatchesPerPair|TestGramIntoParallelBitIdentity|TestLMLGradBandedBitIdentity|TestFitWorkspaceReuseBitIdentity|TestLMLMatchesPerPairReference|TestFitConcurrentStartsBitIdentical|TestFitGradReuse|TestLBFGSBValueOnlyTrials|TestPredictWithGradValueOnlyBits|TestAcqValueOnlyBits|TestConstrainedValueOnlyBits|TestComputeNestedRunsEveryIndexOnce|TestComputeHelperHighWater|TestComputeReservedRunsOnCaller|TestComputeCancelled|TestForEachSpawnsAtOneProc|TestMultiStartParallelMatchesSerial|TestConstrainedFactoryFitBitIdentical|TestFleetParallelMatchesSerial|TestFleetReservesMemberShare|TestFleetReleasesFinishedSlotShare|TestFleetKeepsMembersInFlightAtOneProc|TestPredictWithGradReuseBits|TestPlantMemoBits|TestRefactorizeNonFiniteDiagonal|TestFitObjectiveNaNPenalty' \
    ./internal/mat/ ./internal/gp/ ./internal/parallel/ ./internal/optim/ ./internal/scenario/ ./internal/acq/ ./internal/core/ ./internal/uphes/

echo "== kill-and-resume determinism under -race"
# Named explicitly so the crash-safe serving contracts cannot be silently
# dropped from the gate: checkpoint/resume bit-identity at the ask/tell
# core, per-strategy resume, the session ledger with partial tells and
# corrupt-snapshot fallback, the concurrent HTTP e2e, and the real
# SIGTERM drain-and-resume lifecycle of cmd/pboserver. The async chain is
# pinned at every layer — core LIFO replay, TuRBO's trust region and
# BSP-EGO's partition checkpointed mid-flight, the session ledger with
# fantasized points
# in flight (plus its worker-pool goroutine-leak check), and the HTTP
# kill-and-resume with metrics bit-identity. The migration protocol rides
# in the same group: the kill-migrate-resume chain with Result AND
# Metrics bit-identity, the export/import edge contract, the two-process
# pboserver migration e2e, and the cross-version golden-frame decode
# matrix that keeps v1/v2 snapshots resumable. The scenario engine pins
# its two contracts here too: the rolling-horizon golden trace (same seed
# → bit-identical year schedule and revenue) and the fleet driver's
# mid-day kill-and-resume against a live in-process pboserver. The
# protocol all of them rest on rides here as well: a synchronous cycle
# batch out refuses the next ask, the run is done only once every asked
# point is told, a fleet reports the same bits in process and served in
# both modes, and a served day killed after any round's asks and re-run
# ends with the uninterrupted day's evaluations.
named_race_group \
    'TestAskTellSyncBarrier|TestAskTellDoneWaitsForEveryPoint|TestFleetLocalMatchesServed|TestFleetKillAfterEveryRound|TestAskTellCheckpointResume|TestStrategyKillAndResume|TestSessionKillAndResume|TestSessionResumeSurvivesCorruptNewestSnapshot|TestServerConcurrentSessions|TestServerKillAndResume|TestServerSIGTERMDrainAndResume|TestAsyncKillAndResume|TestStatefulStrategyAsyncKillAndResume|TestSessionAsyncKillAndResume|TestSessionAsyncWorkerPoolDrains|TestServerAsyncKillAndResume|TestServerMigrateBitIdentity|TestServerExportImportLifecycle|TestServerMigrateTwoProcesses|TestGoldenFramesCrossVersionDecode|TestResumeFailsLoudOnFutureVersion|TestScenarioGoldenTraceDeterminism|TestFleetKillAndResume' \
    ./internal/core/ ./internal/strategy/ ./internal/session/ ./internal/serve/ ./internal/scenario/ ./cmd/pboserver/

echo "== fuzz the value-pass reuse for 10 s"
# Byte-derived call sequences on one prediction workspace, each result
# against a fresh call; the seed corpus in internal/gp/testdata/fuzz also
# runs with every go test.
go test -run '^$' -fuzz '^FuzzPredictWithGradReuse$' -fuzztime 10s ./internal/gp/

echo "== fuzz the snapshot frame decoder for 10 s"
# Byte-derived payloads under a valid header and CRC, as format versions
# 1-3: Decode never panics and every error wraps ErrCorrupt or
# ErrVersion. The seeds are the golden v1-v3 payloads and corruptions of
# the v3 layout; inputs it finds land in internal/session/testdata/fuzz.
go test -run '^$' -fuzz '^FuzzFrameDecode$' -fuzztime 10s ./internal/session/

echo "== fuzz the session spec for 10 s"
# Byte-derived create-request bodies: decoding and Validate never panic,
# and every spec Validate accepts builds its engine and opens its run
# without a panic, its initial design inside the size caps. The seeds
# are the specs the serve tests create and the oversized rows; inputs it
# finds land in internal/serve/testdata/fuzz.
go test -run '^$' -fuzz '^FuzzSessionSpec$' -fuzztime 10s ./internal/serve/

echo "== fuzz the import bundle for 10 s"
# Byte-derived import bodies decoded as an ExportBundle and handed to an
# in-memory Server.Import: the import never panics, and an accepted
# bundle answers Status, PendingWork and one Ask without a panic. The
# seeds are exported sync and async sessions, the sync one at another
# problem dimension, and truncations of both; inputs it finds land in
# internal/serve/testdata/fuzz.
go test -run '^$' -fuzz '^FuzzImportBundle$' -fuzztime 10s ./internal/serve/

echo "== fuzz every vector body against its Go oracle, 10 s each"
# The Cholesky sweep on byte-derived operands (any bit pattern, lengths
# 0-67, misaligned starts), the inverse product on byte-derived scratch,
# the radial pass on arbitrary r², and the r² pass and the LML-trace and
# posterior-gradient sums on byte-derived points, rows and kernels, each
# held to the Go loop's bits; the seed corpora under each package's
# testdata/fuzz also run with every go test.
go test -run '^$' -fuzz '^FuzzSubMul4$' -fuzztime 10s ./internal/mat/
go test -run '^$' -fuzz '^FuzzInverseProduct$' -fuzztime 10s ./internal/mat/
go test -run '^$' -fuzz '^FuzzRadial$' -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz '^FuzzR2Rows$' -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz '^FuzzHyperGradSum$' -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz '^FuzzGradXSum$' -fuzztime 10s ./internal/kernel/

echo "== alloc-regression tests (no race detector)"
go test -run 'Alloc' ./internal/mat/ ./internal/kernel/ ./internal/gp/ ./internal/core/ ./internal/scenario/

echo "== benchmarks compile and run once"
go test -run '^$' -bench . -benchtime 1x ./...

echo "== bench.sh -check: alloc budgets, snapshot, fit, async and fleet gates"
./scripts/bench.sh -check

echo "check.sh: all gates passed"
