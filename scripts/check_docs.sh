#!/usr/bin/env bash
# check_docs.sh — the documentation gate:
#   1) every internal/ package (and cmd/) has a package-level doc comment,
#      so `go doc ./internal/...` reads as a guided tour;
#   2) every intra-repo Markdown link resolves to an existing file.
# Fails loudly on regression; run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "== docs gate: package comments =="
# A real godoc package comment is a contiguous //-comment block whose first
# line starts "// Package " (or "// Command " for main packages) and that
# immediately precedes the `package` clause — a stray mid-file comment or a
# commented-out copy elsewhere must not satisfy the gate.
has_package_doc() {
    awk '
        /^\/\// { if (!inblock) { first = $0; inblock = 1 }; next }
        /^package / { if (inblock && first ~ /^\/\/ (Package|Command) /) found = 1; exit }
        { inblock = 0; first = "" }
        END { exit found ? 0 : 1 }
    ' "$1"
}
for dir in $(find internal cmd -type d | sort); do
    # Only directories that actually contain a (non-test) Go package.
    files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
    [ -n "$files" ] || continue
    ok=0
    for f in $files; do
        if has_package_doc "$f"; then ok=1; fi
    done
    if [ "$ok" -ne 1 ]; then
        echo "missing package comment: $dir" >&2
        fail=1
    fi
done

echo "== docs gate: markdown intra-repo links =="
# link_targets prints the ](target) link targets of a Markdown file, one a
# line, outside fenced blocks and inline code spans: a backticked generic
# call such as `Copy[T Elem](c, dst, src)` is code, not a link.
link_targets() {
    awk '
        /^[ \t]*(```|~~~)/ { fence = !fence; next }
        fence { next }
        { gsub(/``([^`]|`[^`])*``/, ""); gsub(/`[^`]*`/, ""); print }
    ' "$1" | { grep -o '](\([^)]*\))' || true; } | sed 's/^](//; s/)$//'
}
# broken_links prints the relative link targets of a Markdown file that name
# no existing file; external schemes and anchors are not checked.
broken_links() {
    local md=$1 base target path
    base=$(dirname "$md")
    while IFS= read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path="${target%%#*}"
        [ -n "$path" ] || continue
        [ -e "$base/$path" ] || printf '%s\n' "$target"
    done < <(link_targets "$md")
}
# Self-check of the extraction: a broken link in prose is found, one in a
# fenced block is not a link, and neither is a backticked call.
probe=$(mktemp -d)
trap 'rm -rf "$probe"' EXIT
printf '%s\n' 'A [broken](no-such-file.md) link.' \
    'Code: `Copy[T Elem](c, dst, src)` is not one, nor ``x `y`](z)``.' \
    '```' '[fenced](also-missing.md)' '```' > "$probe/probe.md"
if [ "$(broken_links "$probe/probe.md")" != "no-such-file.md" ]; then
    echo "link extraction self-check failed: got '$(broken_links "$probe/probe.md")'" >&2
    fail=1
fi
# SNIPPETS.md quotes exemplar code from external repos verbatim, including
# their relative image links — retrieved material, not this repo's docs.
for md in $(find . -name '*.md' -not -path './runs/*' -not -path './.git/*' \
        -not -name 'SNIPPETS.md'); do
    while IFS= read -r target; do
        echo "broken link in $md: $target" >&2
        fail=1
    done < <(broken_links "$md")
done

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED" >&2
    exit 1
fi
echo "check_docs: OK"
