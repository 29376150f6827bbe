#!/usr/bin/env bash
# Functions no entry point reaches: builds the ppa binary and benchmark/ with
# coverage of every ppaclust package, runs their fast entry points (ppa's as
# subcommands) under one GOCOVERDIR, and prints the functions left at 0.0 %
# outside cmd/, benchmark/ and internal/lint. Each is a deletion candidate
# or safety/format code kept for a stated reason (ROADMAP item 9(c)).
#
# Usage: scripts/reach.sh            (~2 min; CI keeps the output as reach.txt)
set -euo pipefail
cd "$(dirname "$0")/.."
t=$(mktemp -d)
trap 'rm -rf "$t"' EXIT
export GOCOVERDIR="$t/cov"
mkdir "$GOCOVERDIR"
go build -cover -coverpkg=ppaclust/... -o "$t/ppa" ./cmd/ppa
(cd benchmark && GOWORK=off go build -cover -coverpkg=ppaclust/... -o "$t/benchmark" .)
(
    cd "$t"
    ./ppa bench -fast -o exp.md
    ./ppa bench -fast -table ablation
    ./ppa bench -fast -table runtime
    ./ppa bench -fast -table figure5
    ./ppa bench -timing-driven 10k -td-out td.json
    ./ppa bench -fast -timing-driven tables -td-out td.json
    ./ppa gen -design aes -o files
    ./ppa flow -design aes -tool innovus -shapes vpr -repair -report 3 -svg p.svg -write-def p.def
    ./ppa flow -design aes -method leiden -shapes random -timing-driven -routability-driven
    ./ppa flow -design aes -method louvain -skip-route
    ./ppa flow -design ariane -method mfc -default
    ./ppa flow -verilog files/aes.v -liberty files/aes.lib -lef files/aes.lef \
        -def files/aes.def -sdc files/aes.sdc -lenient
    ./ppa cluster -design jpeg
    ./ppa vpr -design aes -v
    ./benchmark -smoke -workdir work
    ./benchmark --workload scale250k --seed 1 --seconds 1 --trace 0 -workdir work
) >"$t/run.log" 2>&1 || { tail -20 "$t/run.log" >&2; exit 1; }
go tool covdata func -i="$GOCOVERDIR" | awk '$NF == "0.0%"' |
    grep -vE '^ppaclust/(cmd|benchmark|internal/lint)/' || true
