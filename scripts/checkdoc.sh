#!/bin/sh
# checkdoc.sh — fail if any exported top-level symbol in a gated package
# lacks a doc comment. Gated: the root hammer package (the public API
# documented in README/docs) plus the spine packages whose doc.go contracts
# the architecture docs lean on (internal/obs, internal/cache, internal/wal,
# internal/dist) and the analysis package internal/hamming.
# A deliberately small grep-shaped gate: it inspects top-level
# `func`/`type`/`var`/`const` declarations (including members of grouped
# `var (`/`const (`/`type (` blocks) beginning with an exported identifier
# and requires the preceding line to be a comment. Run from the repository
# root.
set -eu
status=0
for f in ./*.go ./internal/obs/*.go ./internal/cache/*.go ./internal/wal/*.go ./internal/dist/*.go ./internal/hamming/*.go; do
    case "$f" in
    *_test.go) continue ;;
    esac
    out=$(awk '
        # Track grouped declaration blocks: var ( ... ), const ( ... ),
        # type ( ... ). Members are indented one tab; the closing paren is
        # at column 0.
        /^(var|const|type) \($/  { ingroup = 1; prev = $0; next }
        ingroup && /^\)/         { ingroup = 0; prev = $0; next }
        ingroup && /^\t[A-Z][A-Za-z0-9_]*([ \t,=]|$)/ && prev !~ /^\t\/\// && prev !~ /\*\/[ \t]*$/ {
            print FILENAME ":" FNR ": undocumented exported symbol: " $0
        }
        !ingroup && (/^(func|type|var|const) [A-Z]/ || /^func \([^)]*\) [A-Z]/) && prev !~ /^\/\// && prev !~ /\*\/[ \t]*$/ {
            print FILENAME ":" FNR ": undocumented exported symbol: " $0
        }
        { prev = $0 }
    ' "$f")
    if [ -n "$out" ]; then
        echo "$out"
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "checkdoc: add doc comments to the symbols above (go doc output is part of the API surface)"
fi
exit $status
