#!/usr/bin/env bash
# Prints the non-test line count of every crate under crates/ and the total.
#
# Rule: each .rs file outside tests/ and benches/ directories counts its
# lines up to (not including) its first column-0 `#[cfg(test)]`; a file
# without one counts in full.
#
# Usage: scripts/nontest-lines.sh [repo-root]   (default: the current directory)
set -euo pipefail

root="${1:-.}"
total=0
for crate in "$root"/crates/*/; do
    lines=$(find "$crate" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
        -exec awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$(basename "$crate")" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
