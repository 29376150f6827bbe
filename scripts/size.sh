#!/usr/bin/env bash
# Size of the code base, the numbers a simplicity PR is measured by
# (ROADMAP "Quality of design"): non-test Go and assembly (.s) lines per
# package and in total, the package count, the exported identifiers each
# package offers (package-level declarations and methods, as
# `go doc -short -all` lists them) and its options: the exported fields of its
# exported `…Options` structs, as `go doc -all` prints them
# (`Alpha, Beta, Gamma float64` counts three).
#
# Usage: scripts/size.sh            (prints a table; CI keeps it as size.txt)
set -euo pipefail
cd "$(dirname "$0")/.."

# options prints the number of exported fields in the exported …Options
# structs of one package's `go doc -all` text on stdin.
options() {
    awk '
        /^type ([A-Z][A-Za-z0-9_]*)?Options struct [{]/ { in_struct = 1; next }
        in_struct && /^}/ { in_struct = 0; next }
        in_struct {
            line = $0
            sub(/\/\/.*/, "", line)
            gsub(/,[ \t]+/, ",", line)
            if (split(line, tok, " ") < 2) next
            k = split(tok[1], names, ",")
            for (i = 1; i <= k; i++)
                if (names[i] ~ /^[A-Z]/) n++
        }
        END { print n + 0 }'
}

printf '%-34s %8s %9s %8s\n' package lines exported options
total=0
total_exported=0
total_options=0
for pkg in $(go list ./...); do
    dir=${pkg#ppaclust}
    dir=.${dir:-/}
    files=$(find "$dir" -maxdepth 1 \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go')
    [ -n "$files" ] || continue
    # shellcheck disable=SC2086
    lines=$(cat $files | wc -l)
    exported=$(go doc -short -all "$pkg" 2>/dev/null | grep -cE '^\s*(func|type|const|var) ' || true)
    opts=$(go doc -all "$pkg" 2>/dev/null | options)
    printf '%-34s %8d %9d %8d\n' "$dir" "$lines" "$exported" "$opts"
    total=$((total + lines))
    total_exported=$((total_exported + exported))
    total_options=$((total_options + opts))
done
printf '%-34s %8d\n' "total non-test Go and .s lines" "$total"
printf '%-34s %8d\n' "total exported identifiers" "$total_exported"
printf '%-34s %8d\n' "total options" "$total_options"
printf '%-34s %8d\n' "packages (go list ./...)" "$(go list ./... | wc -l)"
