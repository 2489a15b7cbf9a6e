#!/usr/bin/env bash
# Paired parent/HEAD runs of one BENCHMARK.json workload — the measurement
# every performance PR needs and PRs 12-19 each rebuilt by hand.
#
#   scripts/benchpair.sh <workload> [pairs=10] [seconds=12]
#   make benchpair WORKLOAD=churn-failover
#
# The parent ($BASE, default HEAD~1) is checked out with `git worktree add`
# under a temporary directory and removed on exit; the other side is this
# working tree as it stands, uncommitted edits included (so BASE=HEAD while
# a change is still uncommitted). Each pair runs both sides' own
# benchmark/run.sh on one seed (SEED0 + pair number, default 101 on: pick a
# range no development run used), alternating which side goes first so
# drift in the host hits both. Printed: per-pair HEAD/parent ratios of the
# six end-to-end metrics, whether state_digest and events_fired agree,
# failed operations, then each side's q1/median/q3 and the pairs HEAD won —
# the nine-in-ten rule of /opt/skills/guides/choosing-metrics. (serve-ops
# runs on the real clock, so its digest and event count differ between any
# two runs, of one side or of both.) Nothing under benchmark/ is touched;
# both sides build into their own benchmark/.build/.
set -euo pipefail

workload=${1:?usage: scripts/benchpair.sh <workload> [pairs=10] [seconds=12]}
pairs=${2:-10}
seconds=${3:-12}
base=${BASE:-HEAD~1}
seed0=${SEED0:-101}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$tmp/parent" "$base" >/dev/null
echo "parent $(git -C "$tmp/parent" rev-parse --short HEAD) vs working tree at $(git -C "$root" rev-parse --short HEAD), workload $workload, $pairs pairs x ${seconds}s, seeds $seed0..$((seed0 + pairs - 1))"

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
awk '
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
	}
}' "$tmp/rows"
