#!/usr/bin/env bash
# Paired parent/HEAD measurement — the evidence every performance PR needs
# and PRs 12-19 each rebuilt by hand. Three modes:
#
#   scripts/benchpair.sh <workload> [pairs=10] [seconds=12]
#   scripts/benchpair.sh -micro <package> <bench regex> [rounds=6]
#   scripts/benchpair.sh -trend
#   make benchpair WORKLOAD=churn-failover
#   make benchpair PKG=./internal/core BENCH=JudgePass
#   make benchtrend
#
# The parent ($BASE, default HEAD~1) is extracted with `git archive` into a
# temporary directory, removed on exit; the other side is this working
# tree as it stands, uncommitted edits included (so BASE=HEAD while a
# change is still uncommitted).
#
# Workload mode runs both sides' own benchmark/run.sh, one BENCHMARK.json
# workload per pair on one seed (SEED0 + pair number, default 101 on: pick
# a range no development run used), alternating which side goes first so
# drift in the host hits both. Printed: per-pair HEAD/parent ratios of the
# six end-to-end metrics, whether state_digest and events_fired agree,
# failed operations, then each side's q1/median/q3 and the pairs HEAD won
# (a claimed gain should win at least nine pairs in ten). (serve-ops runs on
# the real clock, so its digest and event count differ between any two
# runs, of one side or of both.) Nothing under benchmark/ is touched; both
# sides build into their own benchmark/.build/.
#
# Every workload run then appends one JSON line to BENCH_trajectory.jsonl
# at the repository root — the committed record of paired runs: the two
# revisions (HEAD marked -dirty when the working tree has uncommitted
# edits or untracked files), workload, seeds, pairs, run seconds, the pairs whose digest and
# event count agreed, and per end-to-end metric each side's median, the
# HEAD/parent ratio of the medians and the pairs HEAD won and lost. -trend
# (make benchtrend) prints that file as one row per run: each metric's
# median ratio and the pairs HEAD won.
#
# Micro mode builds each side's `go test -c` binary for one package and
# alternates rounds of `-test.bench <regex> -test.benchmem` between them,
# each binary run from its own package directory. Printed: ns/op and
# allocs/op of every benchmark per round and side, then each side's median
# and the rounds HEAD won on ns/op. Each benchmark then appends one line to
# BENCH_trajectory.jsonl, marked "kind":"micro": the two revisions, package,
# benchmark, rounds, each side's median ns/op and allocs/op, the ns/op
# ratio and the rounds HEAD won; -trend lists them after the workload rows.
set -euo pipefail

usage="usage: scripts/benchpair.sh <workload> [pairs=10] [seconds=12] | -micro <package> <bench regex> [rounds=6] | -trend"
root=$(git rev-parse --show-toplevel)
trajectory=$root/BENCH_trajectory.jsonl

if [[ ${1:-} == -trend ]]; then
	[[ -s $trajectory ]] || { echo "no paired runs recorded in $trajectory"; exit 0; }
	awk '
	# value of "key": in s, unquoted (flat values only)
	function field(s, key,    i, v) {
		i = index(s, "\"" key "\":")
		if (!i) return "-"
		v = substr(s, i + length(key) + 3)
		sub(/[,}].*/, "", v); gsub(/"/, "", v)
		return v
	}
	BEGIN {
		nm = split("setup_s ops_per_s lat_p50_ms live_heap_mb allocs_per_op sim_read_mbps", metrics, " ")
		printf "%-9s %-15s %-15s %-8s %5s %6s", "parent", "head", "workload", "seeds", "pairs", "digest"
		for (k = 1; k <= nm; k++) printf " %16s", metrics[k]
		printf "\n"
	}
	/"kind":"micro"/ { micro[++nmicro] = $0; next }
	{
		printf "%-9s %-15s %-15s %-8s %5s %6s", field($0, "parent"), field($0, "head"), field($0, "workload"),
			field($0, "seeds"), field($0, "pairs"), field($0, "digest_equal") "/" field($0, "pairs")
		for (k = 1; k <= nm; k++) {
			m = substr($0, index($0, "\"" metrics[k] "\":{"))
			printf " %16s", field(m, "ratio") "x " field(m, "won") "/" field($0, "pairs")
		}
		printf "\n"
	}
	END {
		if (!nmicro) exit
		printf "\n%-9s %-15s %-22s %-40s %6s %14s %14s %8s %9s %9s\n", "parent", "head", "package", "benchmark", "rounds",
			"parent ns/op", "head ns/op", "ratio", "p allocs", "h allocs"
		for (i = 1; i <= nmicro; i++) {
			s = micro[i]; ns = substr(s, index(s, "\"ns_op\":{")); al = substr(s, index(s, "\"allocs_op\":{"))
			r = field(ns, "ratio")
			printf "%-9s %-15s %-22s %-40s %6s %14s %14s %8s %9s %9s\n", field(s, "parent"), field(s, "head"), field(s, "package"),
				field(s, "benchmark"), field(s, "won") "/" field(s, "rounds"), field(ns, "parent"), field(ns, "head"), (r == "null" ? "-" : r "x"),
				field(al, "parent"), field(al, "head")
		}
	}' "$trajectory"
	echo "(per metric: HEAD/parent ratio of the medians, pairs HEAD won; micro rows: rounds HEAD won on ns/op)"
	exit 0
fi

base=${BASE:-HEAD~1}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/parent"
git -C "$root" archive "$base" | tar -x -C "$tmp/parent"
parent_rev=$(git -C "$root" rev-parse --short "$base")
head_rev=$(git -C "$root" rev-parse --short HEAD)
[[ -z $(git -C "$root" status --porcelain -- . ':!BENCH_trajectory.jsonl') ]] || head_rev=$head_rev-dirty

if [[ ${1:-} == -micro ]]; then
	pkg=${2:?$usage}
	regex=${3:?$usage}
	rounds=${4:-6}
	echo "parent $parent_rev vs working tree at $head_rev, package $pkg, benchmarks /$regex/, $rounds rounds"
	(cd "$tmp/parent" && go test -c -o "$tmp/parent.test" "$pkg")
	(cd "$root" && go test -c -o "$tmp/head.test" "$pkg")
	# bench <side> <dir> <round>: one run, reduced to "side round name ns allocs".
	bench() {
		(cd "$2/$pkg" && "$tmp/$1.test" -test.run '^$' -test.bench "$regex" -test.benchmem) |
			awk -v side="$1" -v round="$3" '$1 ~ /^Benchmark/ {
				ns = al = "-"
				for (i = 2; i <= NF; i++) { if ($i == "ns/op") ns = $(i - 1); if ($i == "allocs/op") al = $(i - 1) }
				print side, round, $1, ns, al }'
	}
	for ((i = 1; i <= rounds; i++)); do
		if ((i % 2)); then
			bench parent "$tmp/parent" "$i"
			bench head "$root" "$i"
		else
			bench head "$root" "$i"
			bench parent "$tmp/parent" "$i"
		fi >>"$tmp/rows"
		echo "round $i/$rounds done" >&2
	done
	awk -v json="$tmp/micro.jsonl" -v parent_rev="$parent_rev" -v head_rev="$head_rev" -v pkg="$pkg" '
	function median(side, b, col,    n, i, j, t, a) {
		n = 0
		for (i = 1; i <= nr; i++) if ((side, rounds[i], b) in ns) a[++n] = (col == "ns" ? ns[side, rounds[i], b] : al[side, rounds[i], b]) + 0
		for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		return n == 0 ? 0 : (n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2)
	}
	{
		ns[$1, $2, $3] = $4; al[$1, $2, $3] = $5
		if (!($2 in seenr)) { seenr[$2] = 1; rounds[++nr] = $2 }
		if (!($3 in seenb)) { seenb[$3] = 1; benches[++nb] = $3 }
		printf "round %-3s %-6s %-50s %14s ns/op %8s allocs/op\n", $2, $1, $3, $4, $5
	}
	END {
		printf "\n%-50s %14s %14s %7s %9s %9s  %s\n", "benchmark", "parent ns/op", "head ns/op", "ratio", "p allocs", "h allocs", "rounds HEAD won on ns/op"
		for (k = 1; k <= nb; k++) {
			b = benches[k]; won = 0; n = 0
			for (i = 1; i <= nr; i++) if (("parent", rounds[i], b) in ns && ("head", rounds[i], b) in ns) {
				n++; if (ns["head", rounds[i], b] + 0 < ns["parent", rounds[i], b] + 0) won++
			}
			p = median("parent", b, "ns"); h = median("head", b, "ns")
			printf "%-50s %14.6g %14.6g %7s %9g %9g  %d/%d\n", b, p, h, (p == 0 ? "n/a" : sprintf("%.3fx", h / p)),
				median("parent", b, "al"), median("head", b, "al"), won, n
			printf "{\"kind\":\"micro\",\"parent\":\"%s\",\"head\":\"%s\",\"package\":\"%s\",\"benchmark\":\"%s\",\"rounds\":%d,\"won\":%d,\"ns_op\":{\"parent\":%.6g,\"head\":%.6g,\"ratio\":%s},\"allocs_op\":{\"parent\":%g,\"head\":%g}}\n",
				parent_rev, head_rev, pkg, b, n, won, p, h, (p == 0 ? "null" : sprintf("%.4f", h / p)),
				median("parent", b, "al"), median("head", b, "al") > json
		}
	}' "$tmp/rows"
	cat "$tmp/micro.jsonl" >>"$trajectory"
	echo "appended this run to $trajectory"
	exit 0
fi

workload=${1:?$usage}
pairs=${2:-10}
seconds=${3:-12}
seed0=${SEED0:-101}
echo "parent $parent_rev vs working tree at $head_rev, workload $workload, $pairs pairs x ${seconds}s, seeds $seed0..$((seed0 + pairs - 1))"

# run <side> <dir> <seed>: one untraced run, reduced to "side seed key value"
# rows. A run that exits non-zero (a failed check) is reported, not fatal:
# its metrics still count and its failed operations show in the table.
run() {
	local out="$tmp/$1.$3.out"
	if ! bash "$2/benchmark/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 >"$out" 2>&1; then
		echo "$1, seed $3: benchmark exited non-zero" >&2
		grep -E '^  check ' "$out" | grep -v ' ok x' >&2 || tail -n 5 "$out" >&2
	fi
	awk -v side="$1" -v seed="$3" '
		$1 ~ /^(setup_s|ops_per_s|lat_p50_ms|live_heap_mb|allocs_per_op|sim_read_mbps)$/ { print side, seed, $1, $2 }
		$1 == "state_digest" { print side, seed, "digest", $2; print side, seed, "events", $4; print side, seed, "failed", $8 }' "$out"
}

for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		run parent "$tmp/parent" "$seed"
		run head "$root" "$seed"
	else
		run head "$root" "$seed"
		run parent "$tmp/parent" "$seed"
	fi >>"$tmp/rows"
	echo "pair $((i + 1))/$pairs (seed $seed) done" >&2
done

# Metric directions are BENCHMARK.json's end_to_end "better" fields.
awk -v json="$tmp/trajectory.json" -v parent_rev="$parent_rev" -v head_rev="$head_rev" -v workload="$workload" \
	-v seedrange="$seed0-$((seed0 + pairs - 1))" -v seconds="$seconds" '
function quantile(a, n, p,    k, f) {
	k = (n - 1) * p; f = int(k)
	return f + 1 < n ? a[f + 1] + (k - f) * (a[f + 2] - a[f + 1]) : a[n]
}
function sorted(side, m, out,    n, i, j, t) {
	n = 0
	for (i = 1; i <= nseeds; i++) out[++n] = v[side, seeds[i], m] + 0
	for (i = 2; i <= n; i++) for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
	return n
}
BEGIN {
	nm = split("setup_s ops_per_s lat_p50_ms live_heap_mb allocs_per_op sim_read_mbps", metrics, " ")
	higher["ops_per_s"] = higher["sim_read_mbps"] = 1
}
{ v[$1, $2, $3] = $4; if (!($2 in seen)) { seen[$2] = 1; seeds[++nseeds] = $2 } }
END {
	printf "\nHEAD/parent per pair\n%-6s", "seed"
	for (k = 1; k <= nm; k++) printf " %13s", metrics[k]
	printf "  %-6s %-6s %s\n", "digest", "events", "failed(parent/head)"
	for (i = 1; i <= nseeds; i++) {
		s = seeds[i]; printf "%-6s", s
		deq += v["parent", s, "digest"] == v["head", s, "digest"]
		eeq += v["parent", s, "events"] == v["head", s, "events"]
		for (k = 1; k <= nm; k++) {
			m = metrics[k]; p = v["parent", s, m]; h = v["head", s, m]
			printf " %13s", (p + 0 == 0 ? (h + 0 == 0 ? "1.000" : "inf") : sprintf("%.3f", h / p))
			if (h + 0 != p + 0) { if ((m in higher) == (h + 0 > p + 0)) win[m]++; else loss[m]++ }
		}
		printf "  %-6s %-6s %s/%s\n", (v["parent", s, "digest"] == v["head", s, "digest"] ? "equal" : "DIFFER"),
			(v["parent", s, "events"] == v["head", s, "events"] ? "equal" : "DIFFER"), v["parent", s, "failed"], v["head", s, "failed"]
	}
	printf "\n%-14s %-7s %12s %12s %12s   %s\n", "metric", "side", "q1", "median", "q3", "median ratio, pairs HEAD won/lost (ties count for neither)"
	for (k = 1; k <= nm; k++) {
		m = metrics[k]
		n = sorted("parent", m, a); pm = quantile(a, n, 0.5)
		printf "%-14s %-7s %12.6g %12.6g %12.6g\n", m, "parent", quantile(a, n, 0.25), pm, quantile(a, n, 0.75)
		n = sorted("head", m, b); hm = quantile(b, n, 0.5)
		printf "%-14s %-7s %12.6g %12.6g %12.6g   %s, %d/%d of %d (%s is better)\n", m, "head", quantile(b, n, 0.25), hm, quantile(b, n, 0.75),
			(pm == 0 ? "n/a" : sprintf("%.3fx", hm / pm)), win[m], loss[m], n, (m in higher ? "higher" : "lower")
		line = line sprintf(",\"%s\":{\"parent\":%.6g,\"head\":%.6g,\"ratio\":%s,\"won\":%d,\"lost\":%d}",
			m, pm, hm, (pm == 0 ? "null" : sprintf("%.4f", hm / pm)), win[m], loss[m])
	}
	printf "{\"parent\":\"%s\",\"head\":\"%s\",\"workload\":\"%s\",\"seeds\":\"%s\",\"pairs\":%d,\"seconds\":%s,\"digest_equal\":%d,\"events_equal\":%d%s}\n",
		parent_rev, head_rev, workload, seedrange, nseeds, seconds, deq, eeq, line > json
}' "$tmp/rows"
cat "$tmp/trajectory.json" >>"$trajectory"
echo "appended this run to $trajectory"
