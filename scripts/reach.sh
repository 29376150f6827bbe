#!/usr/bin/env bash
# Functions no entry point reaches: builds the library-using binaries and
# benchmark/ with coverage of every ppaclust package, runs their fast entry
# points under one GOCOVERDIR, and prints the functions left at 0.0 % outside
# cmd/, benchmark/ and internal/lint. Each is a deletion candidate
# or safety/format code kept for a stated reason (ROADMAP item 9(c)).
#
# Usage: scripts/reach.sh            (~2 min; CI keeps the output as reach.txt)
set -euo pipefail
cd "$(dirname "$0")/.."
t=$(mktemp -d)
trap 'rm -rf "$t"' EXIT
export GOCOVERDIR="$t/cov"
mkdir "$GOCOVERDIR"
for c in ppabench ppaflow ppacluster ppagen ppavpr; do
    go build -cover -coverpkg=ppaclust/... -o "$t/$c" "./cmd/$c"
done
(cd benchmark && GOWORK=off go build -cover -coverpkg=ppaclust/... -o "$t/benchmark" .)
(
    cd "$t"
    ./ppabench -fast -o exp.md
    ./ppabench -fast -table ablation
    ./ppabench -fast -table runtime
    ./ppabench -fast -table figure5
    ./ppabench -timing-driven 10k -td-out td.json
    ./ppabench -fast -timing-driven tables -td-out td.json
    ./ppagen -design aes -o files
    ./ppaflow -design aes -tool innovus -shapes vpr -repair -report 3 -svg p.svg -write-def p.def
    ./ppaflow -design aes -method leiden -shapes random -timing-driven -routability-driven
    ./ppaflow -design aes -method louvain -skip-route
    ./ppaflow -design ariane -method mfc -default
    ./ppaflow -verilog files/aes.v -liberty files/aes.lib -lef files/aes.lef \
        -def files/aes.def -sdc files/aes.sdc -lenient
    ./ppacluster -design jpeg
    ./ppavpr -design aes -v
    ./benchmark -smoke -workdir work
    ./benchmark --workload scale250k --seed 1 --seconds 1 --trace 0 -workdir work
) >"$t/run.log" 2>&1 || { tail -20 "$t/run.log" >&2; exit 1; }
go tool covdata func -i="$GOCOVERDIR" | awk '$NF == "0.0%"' |
    grep -vE '^ppaclust/(cmd|benchmark|internal/lint)/' || true
