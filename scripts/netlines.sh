#!/bin/sh
# netlines.sh BASE — count the Go lines a change adds and removes, split into
# code, comment and blank lines, so every change reports its net line count
# the same way. Prints one block for production Go (*.go but not *_test.go)
# and one for test Go (*_test.go): the counts at BASE (any commit-ish), in
# the working tree (tracked and untracked files, .gitignore respected), and
# their differences. A line whose first non-blank characters are // is a
# comment line, a line of only blanks is a blank line, and every other line
# is code (block comments count as code). The comment column shows whether
# a reduction is code or deleted comments. Run from anywhere inside the
# repository.
set -eu
if [ $# -ne 1 ]; then
    echo "usage: scripts/netlines.sh BASE" >&2
    exit 2
fi
base=$1
cd "$(git rev-parse --show-toplevel)"
git rev-parse --quiet --verify "$base^{commit}" >/dev/null || {
    echo "netlines: $base is not a commit" >&2
    exit 2
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# count reads Go file names on stdin, relative to the current directory, and
# prints "code comment blank" for production files, then for test files.
count() {
    awk '
        {
            f = $0
            t = (f ~ /_test\.go$/) ? 1 : 0
            while ((getline line < f) > 0) {
                if (line ~ /^[ \t]*$/) k = 3
                else if (line ~ /^[ \t]*\/\//) k = 2
                else k = 1
                n[t, k]++
            }
            close(f)
        }
        END {
            printf "%d %d %d %d %d %d\n", n[0, 1], n[0, 2], n[0, 3], n[1, 1], n[1, 2], n[1, 3]
        }'
}

git archive "$base" | tar -x -C "$tmp"
at_base=$(cd "$tmp" && find . -name '*.go' -type f | count)
at_tree=$(git ls-files --cached --others --exclude-standard -- '*.go' |
    while read -r f; do [ -f "$f" ] && echo "$f"; done | count)

echo "$at_base $at_tree" | awk -v base="$base" '{
    for (b = 0; b < 2; b++) {
        print (b == 0) ? "production Go (*.go but not *_test.go)" : "test Go (*_test.go)"
        printf "%-10s %8s %8s %8s %8s\n", "", "code", "comment", "blank", "total"
        o = 3 * b
        printf "%-10s %8d %8d %8d %8d\n", substr(base, 1, 10), $(o+1), $(o+2), $(o+3), $(o+1) + $(o+2) + $(o+3)
        printf "%-10s %8d %8d %8d %8d\n", "worktree", $(o+7), $(o+8), $(o+9), $(o+7) + $(o+8) + $(o+9)
        printf "%-10s %+8d %+8d %+8d %+8d\n", "net", $(o+7) - $(o+1), $(o+8) - $(o+2), $(o+9) - $(o+3), \
            ($(o+7) + $(o+8) + $(o+9)) - ($(o+1) + $(o+2) + $(o+3))
        if (b == 0) print ""
    }
}'
