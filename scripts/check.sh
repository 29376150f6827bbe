#!/usr/bin/env bash
# Repo-wide check gate: gofmt, vet, build, race-enabled tests, and an explicit
# worker-count equivalence pass over the stages that fan out, with a
# multi-worker budget forced through the PPACLUST_WORKERS environment knob.
#
# Usage: scripts/check.sh [quick]
#   quick  skip the full -race test sweep; run vet+build+equivalence only.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# benchmark/ is its own module (replace ppaclust => ../), so nothing above
# compiles it: removing an exported name it uses would otherwise break the
# repo benchmark silently.
echo "==> benchmark module: go vet + go test"
(cd benchmark && go vet ./... && go test ./...)

# Project-contract lint, the contracts no test can stand in for (DESIGN.md
# "Project-contract lint"): no panics in libraries (nopanic), bounds-checked
# parsing (rawindex), no dropped parser errors (errdrop), no stdout writes
# from libraries (printlib), guarded int32 narrowing on CSR build paths
# (i32trunc), no stray nondeterminism sources (ndsource). Runs in both modes,
# ahead of the test sweep, so a contract violation fails fast with file:line
# provenance. The suppression audit then fails on any directive that no
# longer silences a finding.
echo "==> ppalint ./..."
go run ./cmd/ppalint ./...

echo "==> ppalint -suppressions ./..."
go run ./cmd/ppalint -suppressions ./...

if [[ "${1:-}" != "quick" ]]; then
    # The race detector slows the experiment/GNN suites ~10x; on small CPU
    # budgets they overrun go test's default 10m per-package timeout.
    echo "==> go test -race ./..."
    go test -race -timeout 45m ./...
fi

# Determinism contract: every stage that fans out (DESIGN.md "Parallel
# execution") must land on the same bits at any worker count. Run its
# equivalence tests once more with the worker budget forced to 4 via the
# environment, so the forks really run on several goroutines even on a
# single-CPU machine (par.Workers honors PPACLUST_WORKERS over GOMAXPROCS).
# gnn.TestFitBitIdentical trains at the automatic budget, so its pinned
# golden also checks the training fork here, under the race detector.
# flow.TestClusterIsRunsClustering holds the clustering stage the commands
# print to the one flow.Run places, at W=1 and W=4.
# internal/experiments needs no entry: nothing above internal/flow forks, so
# its tables are loops over flows that are already covered here.
echo "==> equivalence tests with PPACLUST_WORKERS=4"
PPACLUST_WORKERS=4 go test -race \
    -run 'WorkersEquivalent|BitIdentical|MatchesReference|MatchesComparator|IndexByKeys|Deterministic|WirelenCache|ClusterIsRunsClustering' \
    ./internal/place/ ./internal/flow/ ./internal/netlist/ \
    ./internal/route/ ./internal/designs/ ./internal/gnn/ ./internal/vpr/ \
    ./internal/sortx/

# Allocation contract: the placer/clustering inner-loop primitives and the
# GNN's per-shape inference must be allocation-free in steady state, and the
# DEF and Verilog writers must allocate a constant number of times whatever
# the design size, and their readers a bounded number per pin. Run without
# -race (its instrumentation perturbs testing.AllocsPerRun counts).
echo "==> steady-state allocation assertions"
go test -run 'AllocFree|AllocsBounded' ./internal/netlist/ ./internal/route/ \
    ./internal/cts/ ./internal/sta/ ./internal/gnn/ ./internal/place/ \
    ./internal/def/ ./internal/verilog/

if [[ "${1:-}" != "quick" ]]; then
    # Crash-resistance contract: each format reader has one Go-native fuzz
    # target seeded from its own writer output plus a handwritten corpus
    # under testdata/fuzz/. A bounded smoke pass per package keeps the CI
    # budget fixed while still exercising the mutation engine; the corpus
    # files themselves always run as plain unit tests in the sweep above.
    echo "==> bounded fuzz smoke pass (10s per format package)"
    for pkg in def lef liberty sdc verilog; do
        go test -run '^$' -fuzz '^FuzzRead' -fuzztime 10s "./internal/$pkg/"
    done
fi

if [[ "${1:-}" == "quick" ]]; then
    echo "==> code size (scripts/size.sh)"
    scripts/size.sh
fi

echo "OK"
