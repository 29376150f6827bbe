#!/usr/bin/env bash
# Size of the code base, the numbers a simplicity PR is measured by
# (ROADMAP "Quality of design"): non-test Go lines per package and in total,
# the package count, and the exported identifiers each package offers
# (package-level declarations and methods, as `go doc -short -all` lists them).
#
# Usage: scripts/size.sh            (prints a table; CI keeps it as size.txt)
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-34s %8s %9s\n' package lines exported
total=0
for pkg in $(go list ./...); do
    dir=${pkg#ppaclust}
    dir=.${dir:-/}
    files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
    [ -n "$files" ] || continue
    # shellcheck disable=SC2086
    lines=$(cat $files | wc -l)
    exported=$(go doc -short -all "$pkg" 2>/dev/null | grep -cE '^\s*(func|type|const|var) ' || true)
    printf '%-34s %8d %9d\n' "$dir" "$lines" "$exported"
    total=$((total + lines))
done
printf '%-34s %8d\n' "total non-test Go lines" "$total"
printf '%-34s %8d\n' "packages (go list ./...)" "$(go list ./... | wc -l)"
