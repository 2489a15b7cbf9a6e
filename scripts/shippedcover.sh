#!/usr/bin/env bash
# Shipped-path coverage: builds the shipped binaries — cmd/figures,
# cmd/ermsctl, cmd/swimgen, the five examples and the benchmark module —
# with -cover -coverpkg=erms/..., runs each on a fixed list of commands,
# and prints every non-test function of the module that none of the runs
# reached, with a count. Tests count for nothing here: this is the
# converse of scripts/zerocover.sh, which counts what `go test` reaches.
# A package no listed binary links (cmd/ermsd, cmd/doccheck) is not
# counted. Reports only; it fails only when a build or a run fails.
#
# Everything is built and run in a temporary directory (the runs' working
# directory and TMPDIR), so nothing is written in the checkout. The
# figures run takes about 40 s on 2 cores, each benchmark workload 2-5 s.
#
# Usage: bash scripts/shippedcover.sh   (GO=... picks the toolchain)
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin" "$tmp/cov" "$tmp/run"

build() { # build <name> <dir> <package>
	(cd "$2" && "$GO" build -cover -coverpkg=erms/... -o "$tmp/bin/$1" "$3")
}
build figures . ./cmd/figures
build ermsctl . ./cmd/ermsctl
build swimgen . ./cmd/swimgen
for ex in examples/*/; do
	ex=${ex%/}
	build "${ex##*/}" . "./$ex"
done
# The benchmark is a module of its own; -coverpkg reaches the erms
# packages it imports through its replace directive.
build benchmark benchmark .

run() { # run <binary> [args...]: stdout is kept in out.log, a failure is fatal
	if ! (cd "$tmp/run" && GOCOVERDIR="$tmp/cov" TMPDIR="$tmp/run" \
		"$tmp/bin/$1" "${@:2}" >"$tmp/out.log" 2>"$tmp/err.log"); then
		cat "$tmp/err.log"
		echo "shippedcover: $* failed" >&2
		exit 1
	fi
}
run figures -fig all
run swimgen -duration 20m
cp "$tmp/out.log" "$tmp/run/trace.json"
run swimgen -duration 20m -format csv
run swimgen -inspect trace.json
run ermsctl
run ermsctl -json
run ermsctl -demo -log
run ermsctl -trace trace.json
run ermsctl trace -o spans.json
run ermsctl metrics
run ermsctl status
run ermsctl status -shards 4 -kill 9
run ermsctl sweep -seeds 2 -taum 8,4
run ermsctl checkpoint -o nn.ckpt
run ermsctl restore -i nn.ckpt
for ex in examples/*/; do
	ex=${ex%/}
	run "${ex##*/}"
done
for w in hot-small swim-large churn-failover serve-ops; do
	run benchmark -quick -trace 0 -seconds 1 -workload "$w"
done

"$GO" tool covdata textfmt -i="$tmp/cov" -o "$tmp/cover.out"
# The benchmark's own package is not part of the program it measures.
grep -v '^erms/benchmark/' "$tmp/cover.out" >"$tmp/shipped.out"
"$GO" tool cover -func="$tmp/shipped.out" |
	awk '$NF == "0.0%" { f = $1; sub(/:[0-9]+:$/, "", f); sub(/^erms\//, "", f); print f ":" $2 }' |
	sort -u >"$tmp/unreached"
sed 's/^/  /' "$tmp/unreached"
echo "shippedcover: $(wc -l <"$tmp/unreached") functions no shipped run reaches"
