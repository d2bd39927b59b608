#!/usr/bin/env bash
# How much surface and how much code each crate carries (ROADMAP item 8).
# A trend to record per PR in CHANGES.md, not a gate.
#
#   scripts/surface.sh [checkout]      (default: the checkout this script is in)
#
# Per crate under crates/, over src/**/*.rs:
#   pub_items   `pub fn|struct|enum|trait|type|const|static|mod|use` at any
#               depth, methods included and fields and `pub(crate)` not —
#               the by-grep count ROADMAP item 8 quotes
#   top_level   the same items in column 0: what a `use` can name directly
#   lines       non-test lines: everything before a file's first
#               `#[cfg(test)]`, blank lines and comments included
set -euo pipefail

root="${1:-$(dirname "$0")/..}"
cd "$root"

item='pub +(unsafe +|async +|const +)?(fn|struct|enum|trait|type|const|static|mod|use)[ (]'

printf '%-16s %9s %9s %7s\n' crate pub_items top_level lines
total_items=0 total_top=0 total_lines=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    files=$(find "$dir/src" -name '*.rs' | sort)
    [ -n "$files" ] || continue
    # shellcheck disable=SC2086
    read -r items top lines < <(awk -v item="$item" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { lines++ }
        $0 ~ "^ *" item { items++ }
        $0 ~ "^" item { top++ }
        END { print items + 0, top + 0, lines + 0 }
    ' $files)
    printf '%-16s %9d %9d %7d\n' "$crate" "$items" "$top" "$lines"
    total_items=$((total_items + items))
    total_top=$((total_top + top))
    total_lines=$((total_lines + lines))
done
printf '%-16s %9d %9d %7d\n' total "$total_items" "$total_top" "$total_lines"
