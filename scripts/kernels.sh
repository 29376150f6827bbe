#!/usr/bin/env bash
# The kernel record (ROADMAP item 19): runs a fixed list of Go benchmarks with
# -count 5 -benchmem and appends one JSON line per benchmark to
# BENCH_kernels.jsonl at the root of the tree: the commit, the kernel (its
# benchmark name without the `Benchmark` prefix and the -GOMAXPROCS suffix),
# GOMAXPROCS, the CPU model go test reports, the number of runs, the median
# and interquartile range of ns/op, and the medians of B/op and allocs/op.
# Quartiles interpolate linearly between the sorted runs, as scripts/pairs.sh
# does; no benchstat is needed. A [perf_opt] change appends the lines of its
# parent and its own, and a listed kernel that moved by more than its IQR gets
# a sentence in CHANGES.md.
#
# Usage: scripts/kernels.sh [label]     (~6 min on 2 vCPU)
#   label  the commit field; default `git describe --always --dirty`, so an
#          uncommitted tree reads <parent>-dirty
set -euo pipefail
cd "$(dirname "$0")/.."
label=${1:-$(git describe --always --dirty 2>/dev/null || echo unknown)}

# <package> <benchmark regexp> <benchtime>: the 100k detailed placement sets
# up for ~10 s per call of the benchmark function, so it runs one op per
# count; SolveRound runs the ten rounds its doc comment measures.
kernels=(
    "./internal/gnn/ ^Benchmark(TrainStep|Fit|Gemm|PredictBestShape)$ 1s"
    "./internal/place/ ^BenchmarkMulADot$ 1s"
    "./internal/place/ ^BenchmarkSolveRound$ 10x"
    "./internal/cluster/ ^BenchmarkMultilevelFCScale100k$ 1s"
    "./internal/place/ ^BenchmarkDetailedScale100k$ 1x"
    "./internal/sta/ ^Benchmark(STABuildAndRunScale100k|TopPathsScale100k)$ 1s"
)

out=$(mktemp)
trap 'rm -f "$out"' EXIT
for k in "${kernels[@]}"; do
    read -r pkg re benchtime <<<"$k"
    echo "==> $pkg $re" >&2
    go test -run '^$' -bench "$re" -benchtime "$benchtime" -count 5 -benchmem "$pkg" | tee -a "$out" >&2
done

awk -v commit="$label" '
function quantile(a, cnt, q,    pos, lo) {  # linear interpolation on a sorted array
    pos = 1 + (cnt - 1) * q; lo = int(pos)
    return lo >= cnt ? a[cnt] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
function sorted(k, m, out,    i, j, v, cnt) {
    cnt = runs[k]
    for (i = 1; i <= cnt; i++) out[i] = val[k, m, i]
    for (i = 2; i <= cnt; i++) { v = out[i]; for (j = i - 1; j >= 1 && out[j] > v; j--) out[j + 1] = out[j]; out[j + 1] = v }
    return cnt
}
/^cpu: / { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ && / ns\/op/ {
    name = substr($1, 10); procs = 1
    if (match(name, /-[0-9]+$/)) { procs = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) }
    if (!(name in runs)) { order[++nk] = name; nprocs[name] = procs }
    r = ++runs[name]
    for (i = 3; i < NF; i += 2) val[name, $(i + 1), r] = $i + 0
}
END {
    for (x = 1; x <= nk; x++) {
        k = order[x]
        n = sorted(k, "ns/op", ns); sorted(k, "B/op", bytes); sorted(k, "allocs/op", allocs)
        printf "{\"commit\":\"%s\",\"kernel\":\"%s\",\"procs\":%d,\"cpu\":\"%s\",\"runs\":%d,", commit, k, nprocs[k], cpu, n
        printf "\"ns_op_median\":%.0f,\"ns_op_iqr\":%.0f,", quantile(ns, n, 0.5), quantile(ns, n, 0.75) - quantile(ns, n, 0.25)
        printf "\"b_op\":%.0f,\"allocs_op\":%.0f}\n", quantile(bytes, n, 0.5), quantile(allocs, n, 0.5)
    }
}' "$out" | tee -a BENCH_kernels.jsonl
