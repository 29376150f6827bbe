#!/usr/bin/env bash
# Alternating parent/change pairs of one repository-benchmark workload: the
# acceptance protocol of every PR (ROADMAP 1(b); choosing-metrics section 8).
# Unpacks <parent-ref> with `git archive` into a temporary directory, builds
# benchmark/ there and in the working tree, and runs `benchmark/run.sh
# --workload <w> --seed <seed> --seconds <BENCHMARK.json run_seconds> --trace 0`
# n times per side, the parent first in odd pairs and the change first in
# even ones. Per end-to-end metric it prints both medians, their ratio, the
# distance between the parent's quartiles, and in how many pairs the change
# read better (lower) or tied; for the quality metrics, which must not move,
# in how many pairs the two sides were bit-equal. Exit 1 if any operation
# failed. A claim is accepted at seed 1 and confirmed at a seed not used while
# the change was written (choosing-metrics section 6.3).
#
# Usage: scripts/pairs.sh <parent-ref> <workload> [n=10] [seed=1]
#   e.g. scripts/pairs.sh HEAD~1 scale100k      (~10 min on 2 vCPU)
#        scripts/pairs.sh HEAD~1 scale100k 10 5 (the confirmation)
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 2 ] || { sed -n '2,/^set -euo/p' "$0" | grep '^#' >&2; exit 2; }
ref=$1 workload=$2 n=${3:-10} seed=${4:-1}
seconds=$(grep -oE '"run_seconds": *[0-9]+' BENCHMARK.json | grep -oE '[0-9]+$')
t=$(mktemp -d)
trap 'rm -rf "$t"' EXIT
mkdir "$t/parent"
git archive "$ref" | tar -x -C "$t/parent"

# run <side> <dir> <pair>: one JSON line -> "$t/<side>.<pair>" as "name value" rows.
run() {
    (cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
        2>"$t/log" | tail -1 >"$t/$1.$3.json" || { cat "$t/log" >&2; exit 1; }
    grep -oE '"(attempted|failed)":[0-9]+' "$t/$1.$3.json" | tr -d '"' | tr ':' ' ' >"$t/$1.$3"
    grep -oE '"[a-z_]+":\{"value":[^,]+' "$t/$1.$3.json" | sed -E 's/"([a-z_]+)":\{"value":/\1 /' >>"$t/$1.$3"
}
for i in $(seq 1 "$n"); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        dir=$PWD
        [ "$side" = parent ] && dir=$t/parent
        run "$side" "$dir" "$i"
    done
    echo "pair $i/$n ($order): clustered_flow_s" \
        "$(awk '$1=="clustered_flow_s"{print $2}' "$t/parent.$i") ->" \
        "$(awk '$1=="clustered_flow_s"{print $2}' "$t/change.$i")" >&2
done

for side in parent change; do
    for i in $(seq 1 "$n"); do sed "s/^/$side $i /" "$t/$side.$i"; done
done | awk -v n="$n" -v workload="$workload" -v ref="$ref" -v seed="$seed" '
function quantile(a, cnt, q,    pos, lo) {  # linear interpolation on a sorted array
    pos = 1 + (cnt - 1) * q; lo = int(pos)
    return lo >= cnt ? a[cnt] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
function sorted(side, m, out,    i, j, v) {
    for (i = 1; i <= n; i++) out[i] = val[side, i, m] + 0
    for (i = 2; i <= n; i++) { v = out[i]; for (j = i - 1; j >= 1 && out[j] > v; j--) out[j + 1] = out[j]; out[j + 1] = v }
}
{ val[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; names[++k] = $3 } }
END {
    printf "%s: %d pairs, parent %s vs working tree, --seed %s --trace 0\n", workload, n, ref, seed
    printf "%-20s %12s %12s %7s %12s %s\n", "metric", "parent med", "change med", "ratio", "parent IQR", "change better / tied / bit-equal"
    for (j = 1; j <= k; j++) {
        m = names[j]
        if (m == "attempted" || m == "failed") {
            for (i = 1; i <= n; i++) { tot["parent", m] += val["parent", i, m]; tot["change", m] += val["change", i, m] }
            continue
        }
        sorted("parent", m, p); sorted("change", m, c)
        better = tied = 0
        for (i = 1; i <= n; i++) {
            if (val["change", i, m] "" == val["parent", i, m] "") tied++   # as strings: the same printed bits
            else if (val["change", i, m] + 0 < val["parent", i, m] + 0) better++
        }
        pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
        printf "%-20s %12.6g %12.6g %7.3f %12.4g %d / %d / %s\n", m, pm, cm, (pm ? cm / pm : 0),
            quantile(p, n, 0.75) - quantile(p, n, 0.25), better, tied, (tied == n ? "yes" : "no")
    }
    printf "operations: parent %d attempted, %d failed; change %d attempted, %d failed\n",
        tot["parent", "attempted"], tot["parent", "failed"], tot["change", "attempted"], tot["change", "failed"]
    exit (tot["parent", "failed"] + tot["change", "failed"] > 0)
}'
