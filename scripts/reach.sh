#!/usr/bin/env bash
# Functions no entry point reaches: builds the ppa binary and benchmark/ with
# coverage of every ppaclust package, runs their fast entry points (ppa's as
# subcommands) under one GOCOVERDIR, and prints the functions left at 0.0 %
# outside cmd/, benchmark/ and internal/lint. Each must be on
# scripts/reach.allow with its reason; the script fails on an unreached
# function missing from the list and on a listed one that is no longer
# unreached (stale), as `ppalint -suppressions` does for its directives.
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
    ./ppa flow -design aes -tool innovus -shapes vpr -report 3 -svg p.svg -write-def p.def
    ./ppa flow -design aes -method leiden -shapes random -timing-driven
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
    grep -vE '^ppaclust/(cmd|benchmark|internal/lint)/' >"$t/unreached.txt" || true
cat "$t/unreached.txt"

# "<package> <function>" keys of the unreached list and of the allow list.
awk '{ f = $1; sub(/:[0-9]+:$/, "", f); sub(/\/[^\/]*$/, "", f); sub(/^ppaclust\//, "", f); print f, $2 }' \
    "$t/unreached.txt" | sort -u >"$t/got"
allow=scripts/reach.allow
if awk '!/^[[:space:]]*(#|$)/ && NF < 3' "$allow" | grep -q .; then
    echo "reach: $allow lines need <package> <function> <reason>:" >&2
    awk '!/^[[:space:]]*(#|$)/ && NF < 3' "$allow" >&2
    exit 1
fi
awk '!/^[[:space:]]*(#|$)/ { print $1, $2 }' "$allow" | sort -u >"$t/want"
status=0
if comm -23 "$t/got" "$t/want" | grep -q .; then
    echo "reach: unreached and not on $allow (delete, reach, or list with a reason):" >&2
    comm -23 "$t/got" "$t/want" >&2
    status=1
fi
if comm -13 "$t/got" "$t/want" | grep -q .; then
    echo "reach: STALE entries on $allow (now reached or gone; remove them):" >&2
    comm -13 "$t/got" "$t/want" >&2
    status=1
fi
exit $status
