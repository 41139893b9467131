#!/usr/bin/env bash
# Paired benchmark runs: scripts/pairs.sh <parent-ref> <workload> [pairs=10] [seconds=20]
#
# Unpacks <parent-ref> under .bench_build/, then runs benchmark/run.sh
# --trace 0 on it and on the working tree <pairs> times, alternating
# which side goes first, each pair on a seed of its own. For every
# end-to-end metric of BENCHMARK.json it prints both medians, both
# quartile distances and the pairs the change won: the rule of the
# benchmark README and of choosing-metrics section 8 — a gain needs nine
# pairs in ten and medians further apart than the parent's own quartile
# distance; a regression is a median worse by more than the bound.
# Run nothing else meanwhile: the large workloads want both CPUs.
set -euo pipefail
[ $# -ge 2 ] || { sed -n 2p "$0" >&2; exit 2; }
cd "$(dirname "$0")/.."
ref=$(git rev-parse --verify "$1^{commit}") workload=$2 pairs=${3:-10} seconds=${4:-20}
parent=".bench_build/parent-$ref"
if [ ! -d "$parent" ]; then
	mkdir -p "$parent"
	git archive "$ref" | tar -x -C "$parent"
fi
out=$(mktemp -d .bench_build/pairs.XXXXXX)
run() { # side dir seed: the run's closing JSON line
	(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) | tail -n 1 >>"$out/$1"
}
for ((i = 0; i < pairs; i++)); do
	seed=$RANDOM
	if ((i % 2)); then order="change parent"; else order="parent change"; fi
	echo "pair $((i + 1))/$pairs: seed $seed, $order" >&2
	for side in $order; do
		if [ "$side" = parent ]; then run parent "$parent" "$seed"; else run change . "$seed"; fi
	done
done
if grep -hv '"correct":true,"attempted":[0-9]*,"failed":0,' "$out/parent" "$out/change" | grep -q .; then
	echo "a run failed operations or its correctness check: see $out" >&2
fi
# One row per end-to-end metric (the BENCHMARK.json entries with a bound).
grep -o '"name": "[a-z_0-9]*", "unit": "[^"]*", "better": "[a-z]*", "bound": [0-9.]*' BENCHMARK.json |
	sed 's/"name": "\([^"]*\)", "unit": "\([^"]*\)", "better": "\([^"]*\)", "bound": \(.*\)/\1 \2 \3 \4/' |
	while read -r name unit better bound; do
		values() { grep -o "\"$name\":{\"value\":[^,]*" "$out/$1" | sed 's/.*://' | tr '\n' ' '; }
		echo "$name $unit $better $bound | $(values parent) | $(values change)"
	done | awk -F ' [|] ' -v workload="$workload" '
	function quantile(v, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
	function stats(s, v, out,    n, i, j, t) {
		n = split(s, v, " ")
		for (i = 1; i <= n; i++) out[i] = v[i] + 0
		for (i = 2; i <= n; i++) for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
		return n
	}
	BEGIN { printf "%-18s %-6s %12s %10s %12s %10s %7s %6s  %s\n", workload, "unit", "parent p50", "IQR", "change p50", "IQR", "ratio", "won", "verdict" }
	{
		split($1, m, " "); n = stats($2, p, ps); stats($3, c, cs)
		won = 0
		for (i = 1; i <= n; i++) if (m[3] == "higher" ? c[i] > p[i] : c[i] < p[i]) won++
		pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
		piqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25); ciqr = quantile(cs, n, 0.75) - quantile(cs, n, 0.25)
		gain = m[3] == "higher" ? cm - pm : pm - cm
		verdict = "no change shown"
		if (won * 10 >= n * 9 && gain > piqr) verdict = "gain"
		else if (pm != 0 && -gain > m[4] * (pm < 0 ? -pm : pm)) verdict = "REGRESSION beyond the " m[4] * 100 "% bound"
		printf "%-18s %-6s %12.6g %10.4g %12.6g %10.4g %7.3f %3d/%-2d  %s\n", m[1], m[2], pm, piqr, cm, ciqr, pm ? cm / pm : 0, won, n, verdict
	}'
echo "runs kept in $out" >&2
