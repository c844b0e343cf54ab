#!/usr/bin/env bash
# Non-test line counts: for every .rs file, the lines before its first
# `#[cfg(test)]` (the whole file when it has none), summed per directory.
#
# Usage: scripts/nontest-lines.sh   (from anywhere inside the repository)
set -euo pipefail

cd "$(dirname "$0")/.."

# Sum of the non-test lines of every .rs file under $1.
count_dir() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test { n++ }
        END { print n + 0 }
    ' | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/*/src src examples; do
    [ -d "$dir" ] || continue
    n=$(count_dir "$dir")
    printf '%-24s %7d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-24s %7d\n' "total" "$total"
