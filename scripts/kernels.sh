#!/usr/bin/env bash
# The kernel record (ROADMAP item 19): runs a fixed list of Go benchmarks five
# times with -benchmem and appends one JSON line per benchmark to
# BENCH_kernels.jsonl at the root of the tree: the commit, the kernel (its
# benchmark name without the `Benchmark` prefix and the -GOMAXPROCS suffix),
# GOMAXPROCS, the CPU model go test reports, the number of runs, the median
# and interquartile range of ns/op, and the medians of B/op and allocs/op.
# Quartiles interpolate linearly between the sorted runs, as scripts/pairs.sh
# does; no benchstat is needed. Each listed package is compiled once with
# `go test -c`, and each of the five runs is one `-test.count 1` process of
# that binary, started in its package directory.
#
# <ref> (default HEAD) is unpacked with `git archive`, as scripts/pairs.sh
# does, and its packages are compiled too; each kernel then runs parent and
# working tree alternately, the parent first in odd runs and the working tree
# first in even ones, so drift of a shared box falls on both sides alike.
# The parent's lines are labelled with its short hash, the working tree's
# with [label]; a kernel the parent lacks gets only the working tree's line.
# A listed kernel that moved by more than its IQR gets a sentence in
# CHANGES.md.
#
# Usage: scripts/kernels.sh [ref] [label]   (~12 min on 2 vCPU)
#   ref    the parent; default HEAD, so an uncommitted change is recorded
#          against the commit it sits on
#   label  the working tree's commit field; default `git describe --always
#          --dirty`, so an uncommitted tree reads <parent>-dirty
# KERNELS=<regexp> in the environment keeps only the entries of the list
# below whose line matches it (bash =~), e.g.
#   KERNELS='DetailedScale100k|Steiner' scripts/kernels.sh
set -euo pipefail
cd "$(dirname "$0")/.."
ref=${1:-HEAD}
label=${2:-$(git describe --always --dirty 2>/dev/null || echo unknown)}

# <package> <benchmark regexp> <benchtime>: the 100k detailed placement sets
# up for ~10 s per call of the benchmark function, so it runs one op per
# count; SolveRound runs the ten rounds its doc comment measures, and the
# file-set load (W1 and W2, ~0.15-0.3 s each) and each of its two big
# readers five.
kernels=(
    "./internal/gnn/ ^Benchmark(TrainStep|Fit|Gemm|PredictBestShape)$ 1s"
    "./internal/place/ ^BenchmarkMulADot$ 1s"
    "./internal/place/ ^BenchmarkSolveRound$ 10x"
    "./internal/place/ ^BenchmarkIncrementalPlace$ 1s"
    "./internal/cluster/ ^BenchmarkMultilevelFCScale100k$ 1s"
    "./internal/place/ ^BenchmarkDetailedScale100k$ 1x"
    "./internal/place/ ^BenchmarkLegalizeScale100k$ 1s"
    "./internal/cts/ ^BenchmarkSynthesizeScale100k$ 1s"
    "./internal/sta/ ^Benchmark(STABuildAndRunScale100k|TopPathsScale100k)$ 1s"
    "./internal/route/ ^BenchmarkGlobalRouteScale100k$ 1s"
    "./internal/route/ ^BenchmarkSteiner$ 1s"
    "./internal/vpr/ ^BenchmarkBestShape$ 1s"
    "./internal/netlist/ ^BenchmarkCloneScale100k$ 1s"
    "./internal/flow/ ^BenchmarkLoadBenchmark$ 5x"
    "./internal/verilog/ ^BenchmarkParseVerilog$ 5x"
    "./internal/def/ ^BenchmarkParseDEF$ 5x"
)

t=$(mktemp -d)
trap 'rm -rf "$t"' EXIT
tree_change=$PWD
tree_parent=$t/parent
mkdir "$tree_parent"
git archive "$ref" | tar -x -C "$tree_parent"
: >"$t/change.out"
: >"$t/parent.out"

# build <package>: compiles the package's test binary in both trees, once. A
# package the parent cannot build (it may predate the benchmark) leaves no
# parent binary; a build error in the working tree stops the script.
build() {
    local name=${1//\//_}.test
    [ -e "$t/change.$name" ] && return
    (cd "$tree_parent" && go test -c -o "$t/parent.$name" "$1" >&2) ||
        echo "kernels.sh: $ref cannot build $1; it gets no parent line" >&2
    go test -c -o "$t/change.$name" "$1" >&2
}

for k in "${kernels[@]}"; do
    [[ -z ${KERNELS:-} || $k =~ $KERNELS ]] || continue
    read -r pkg re benchtime <<<"$k"
    echo "==> $pkg $re" >&2
    build "$pkg"
    for run in 1 2 3 4 5; do
        order=(parent change)
        ((run % 2)) || order=(change parent)
        for side in "${order[@]}"; do
            tree=tree_$side exe=$t/$side.${pkg//\//_}.test
            [ -e "$exe" ] || continue
            (cd "${!tree}/$pkg" && "$exe" -test.run '^$' -test.bench "$re" -test.benchtime "$benchtime" \
                -test.count 1 -test.benchmem) | tee -a "$t/$side.out" >&2
        done
    done
done

summarize() {
awk -v commit="$1" '
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
}' "$2"
}
{
    summarize "$(git rev-parse --short "$ref")" "$t/parent.out"
    summarize "$label" "$t/change.out"
} | tee -a BENCH_kernels.jsonl
