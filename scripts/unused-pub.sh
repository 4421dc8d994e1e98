#!/usr/bin/env bash
# Prints every `pub fn|struct|enum|trait|const|type` declared in non-test
# code under crates/*/src whose name appears in no non-test code outside
# its own file — the candidates of the next dead-code sweep — and their
# count.
#
# Non-test code follows scripts/nontest-lines.sh: each .rs file outside
# tests/ and benches/ directories, up to (not including) its first
# column-0 `#[cfg(test)]`. The search covers crates/, src/, examples/ and
# benchmark/src, with `//` comments stripped, so a mention in a doc comment
# is not a use. Names are matched as whole identifiers, so a name shared
# with another item (`new`, `len`) counts as used; the list is a lower
# bound, not a proof.
#
# Usage: scripts/unused-pub.sh [repo-root]   (default: the current directory)
set -euo pipefail

cd "${1:-.}"
find crates src examples benchmark/src -name '*.rs' \
    -not -path '*/tests/*' -not -path '*/benches/*' -print0 2>/dev/null |
    sort -z |
    xargs -0 awk '
    /^#\[cfg\(test\)\]/ { nextfile }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (FILENAME ~ /^crates\/[^\/]+\/src\// &&
            match(line, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*(fn|struct|enum|trait|type)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
            decl = substr(line, RSTART, RLENGTH)
            n = split(decl, w, /[ \t]+/)
            kind = w[n - 1]
            name = w[n]
            decls[++nd] = FILENAME ":" FNR ": " kind " " name
            dname[nd] = name
        } else if (FILENAME ~ /^crates\/[^\/]+\/src\// &&
                   match(line, /^[ \t]*pub[ \t]+const[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*:/)) {
            decl = substr(line, RSTART, RLENGTH)
            sub(/[ \t]*:$/, "", decl)
            n = split(decl, w, /[ \t]+/)
            decls[++nd] = FILENAME ":" FNR ": const " w[n]
            dname[nd] = w[n]
        }
        n = split(line, ids, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            id = ids[i]
            if (id == "") continue
            if (!(id in first)) first[id] = FILENAME
            else if (first[id] != FILENAME) shared[id] = 1
        }
    }
    END {
        count = 0
        for (i = 1; i <= nd; i++) {
            if (!(dname[i] in shared)) {
                print decls[i]
                count++
            }
        }
        printf "total %d\n", count
    }'
