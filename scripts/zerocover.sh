#!/usr/bin/env bash
# Zero-coverage ratchet: runs every test with coverage counted across the
# whole module (-coverpkg=./...), so a function counts as covered when any
# package's tests reach it, and fails on any non-test function outside
# examples/ that no test runs and that scripts/zerocover.allow does not
# list. The list is keyed file:func (no line numbers, so unrelated edits do
# not churn it) and can only shrink: an entry whose function is now covered,
# or gone, fails the check too, so removing the line is part of the change
# that covers or deletes the function.
#
# Usage: bash scripts/zerocover.sh   (GO=... picks the toolchain)
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}
allow=scripts/zerocover.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if ! "$GO" test -coverpkg=./... -coverprofile="$tmp/cover.out" ./... >"$tmp/test.log" 2>&1; then
	cat "$tmp/test.log"
	echo "zerocover: tests failed" >&2
	exit 1
fi
mod="$("$GO" list -m)/"
"$GO" tool cover -func="$tmp/cover.out" |
	awk -v mod="$mod" '$NF == "0.0%" { f = $1; sub(/:[0-9]+:$/, "", f); sub("^" mod, "", f); print f ":" $2 }' |
	grep -v '^examples/' | sort -u >"$tmp/zero" || true
grep -v -e '^#' -e '^$' "$allow" | sort -u >"$tmp/allow"

status=0
if fresh=$(comm -23 "$tmp/zero" "$tmp/allow") && [ -n "$fresh" ]; then
	echo "zerocover: functions no test runs (cover them, or delete them):"
	echo "$fresh" | sed 's/^/  /'
	status=1
fi
if stale=$(comm -13 "$tmp/zero" "$tmp/allow") && [ -n "$stale" ]; then
	echo "zerocover: $allow entries now covered or deleted (remove them):"
	echo "$stale" | sed 's/^/  /'
	status=1
fi
[ "$status" -ne 0 ] || echo "zerocover: $(wc -l <"$tmp/allow") allowlisted zero-coverage functions, no others"
exit "$status"
