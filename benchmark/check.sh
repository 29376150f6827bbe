#!/usr/bin/env bash
# A/A self-agreement gate: run the suite twice on the working tree and compare
# the two result files in both directions. It fails if either comparison
# reports a regression, a changed exact quantity or an unresolved metric: two
# runs of the same code must agree within the benchmark's own bounds.
# Arguments (for example -seed 2 or -smoke) are passed to both runs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=.bench_build/check
mkdir -p "$out"
for side in a b; do
    bash benchmark/run.sh "$@" -out "$out/$side.json" -trace-out "$out/$side-trace.json"
done
status=0
for pair in "a b" "b a"; do
    set -- $pair
    echo "==> compare $1 -> $2"
    bash benchmark/run.sh -compare "$out/$1.json" "$out/$2.json" | tee "$out/compare-$1-$2.txt" || status=1
    if grep -qE 'unresolved|changed' "$out/compare-$1-$2.txt"; then
        status=1
    fi
done
exit $status
