#!/usr/bin/env bash
# Repo-wide check gate: gofmt, vet, build, race-enabled tests, and an explicit
# worker-count equivalence pass over the stages that fan out, with a
# multi-worker budget forced through the PPACLUST_WORKERS environment knob.
#
# Usage: scripts/check.sh [quick]
#   quick  skip the full -race test sweep; run vet+build+equivalence only.
#        scripts/check.sh fuzz <pkg>...
#          only the bounded fuzz smoke pass, for the named format packages.
set -euo pipefail
cd "$(dirname "$0")/.."

# Crash-resistance contract: each format reader has one Go-native fuzz
# target seeded from its own writer output plus a handwritten corpus under
# testdata/fuzz/. A bounded smoke pass per package keeps the budget fixed
# while still exercising the mutation engine; the corpus files themselves
# always run as plain unit tests in the test sweep.
fuzz_smoke() {
    echo "==> bounded fuzz smoke pass (10s per format package: $*)"
    for pkg in "$@"; do
        go test -run '^$' -fuzz '^FuzzRead' -fuzztime 10s "./internal/$pkg/"
    done
    # The Verilog reader's in-place lexer against the streaming lexer it
    # replaced, kept in its tests as the oracle: a differential target with
    # a step of its own, as -fuzz '^FuzzRead' must match exactly one target
    # per package.
    if [[ " $* " == *" verilog "* ]]; then
        echo "==> bounded fuzz smoke pass (10s): verilog lexer against its oracle"
        go test -run '^$' -fuzz '^FuzzLexerOracle$' -fuzztime 10s ./internal/verilog/
    fi
}

if [[ "${1:-}" == "fuzz" ]]; then
    shift
    fuzz_smoke "$@"
    echo "OK"
    exit 0
fi

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: unformatted files:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

# internal/gnn's portable kernels are the only implementation on GOARCHes
# without its assembly, and an amd64 build never compiles the files that
# route to them: vet the module for arm64 as well, so they keep building.
echo "==> GOARCH=arm64 go vet ./..."
GOARCH=arm64 go vet ./...

echo "==> go build ./..."
go build ./...

# Layering: the placer takes its feedback from STA only, and the router runs
# after placement in internal/flow. A placer that imports the router again
# would put a router inside the placement loop; fail on it.
echo "==> layering: internal/place does not depend on internal/route"
place_deps=$(go list -deps ./internal/place)
if grep -qx 'ppaclust/internal/route' <<<"$place_deps"; then
    echo "internal/place depends on ppaclust/internal/route" >&2
    exit 1
fi

# Names belong to the readers: they resolve pin and port names to indices
# through their own name indices (the design keeps none) and SDC clock roots
# to clock-net marks once, and no later layer looks a pin up by name or
# reads the clock port names. Fail on a program file outside
# internal/{netlist,verilog,def,lef,liberty,sdc,designs} and
# internal/flow/files.go that does.
echo "==> names stay in the readers: no PinIndex(, PinRefOf( or .ClockPorts past them"
name_reads=$(grep -rnE --include='*.go' 'PinIndex\(|PinRefOf\(|\.ClockPorts' cmd internal benchmark |
    grep -vE '^internal/(netlist|verilog|def|lef|liberty|sdc|designs)/|^internal/flow/files\.go:|_test\.go:' || true)
if [[ -n "$name_reads" ]]; then
    echo "name lookups past the readers:" >&2
    echo "$name_reads" >&2
    exit 1
fi

# internal/gnn runs its assembly kernels only where the package's CPU check
# finds AVX; elsewhere TestKernelsMatchPortable skips and the portable kernels
# run. On an amd64 host the test must have passed, not skipped: a runner
# without AVX would otherwise pass this gate without executing the assembly.
echo "==> GNN assembly kernels against the portable ones"
if ! kernels=$(go test -count=1 -v -run '^TestKernelsMatchPortable$' ./internal/gnn/ 2>&1); then
    echo "$kernels" >&2
    exit 1
fi
echo "$kernels" | grep -E '^(--- |ok )'
if [[ "$(go env GOARCH)" == amd64 ]] && ! grep -q '^--- PASS: TestKernelsMatchPortable' <<<"$kernels"; then
    echo "TestKernelsMatchPortable did not run the AVX kernels on this amd64 host:" >&2
    echo "$kernels" >&2
    exit 1
fi

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
    # budgets they overrun go test's default 10m per-package timeout. Its
    # instrumentation also moves testing.AllocsPerRun counts, so the
    # allocation tests are skipped here: every one of them runs, without
    # -race, in the allocation step below.
    echo "==> go test -race ./... (allocation tests skipped: they run below)"
    go test -race -timeout 45m -skip 'AllocFree|AllocsBounded' ./...
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
    fuzz_smoke def lef liberty sdc verilog
fi

if [[ "${1:-}" == "quick" ]]; then
    echo "==> code size (scripts/size.sh)"
    scripts/size.sh
fi

echo "OK"
