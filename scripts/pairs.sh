#!/usr/bin/env bash
# Runs the benchmark in alternating pairs, a parent commit against the
# working tree, and prints for every end-to-end metric of every workload
# the pairs the change won and each side's median and quartiles, the same
# for the extra metrics an untraced run reports beside them
# (client.roll_p50_ms, ...), which have no bound, and then `bench
# compare`'s verdict against BENCHMARK.json's bounds, and how many runs of
# each side bench marked noisy. It appends one row to BENCH_history.json.
#
#   scripts/pairs.sh PARENT [workload…]
#
# PARENT is any commit git can name. With no workload given, every one
# BENCHMARK.json declares is run. The parent is checked out in a git
# worktree under .bench_build/, removed again at exit; both sides run their
# own cmd/bench/run.sh with --trace 0 and the benchmark's own window. Pair i
# runs the parent first when i is odd and the change first when it is even,
# so neither side always runs on a box the other has just warmed. A pair
# counts as won when the change reads better than the parent on it; a tie
# counts for neither. BENCHMARK.json says which way is better for an
# end-to-end metric; an extra one is better higher when its unit is 1/s
# and lower otherwise. "gain" marks a metric whose change won nine tenths of
# the pairs and whose medians are further apart than the parent's
# interquartile range. Needs jq.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
pairs=10

if [ $# -lt 1 ]; then
	echo "usage: scripts/pairs.sh PARENT [workload…]" >&2
	exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
shift
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi
mapfile -t metrics < <(jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json)
change=$(git rev-parse HEAD)
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
	change="$change+dirty"
fi

out="$root/.bench_build/pairs"
tree="$root/.bench_build/parent-tree"
rm -rf "$out"
mkdir -p "$out/parent" "$out/change"
git worktree remove --force "$tree" 2>/dev/null || true
git worktree add --detach "$tree" "$parent" >/dev/null
trap 'git worktree remove --force "$tree"' EXIT

# side NAME DIR COMMIT WORKLOAD runs one benchmark run of one side. A run
# that fails or reads correct:false is reported and kept: compare counts
# its failed requests against the side.
side() {
	if ! (cd "$2" && BENCH_COMMIT="$3" bash cmd/bench/run.sh \
		--workload "$4" --trace 0 --out "$out/$1") >>"$out/$1.log" 2>&1; then
		echo "  $1 run of $4 failed or was incorrect (see $out/$1.log)" >&2
	fi
}

for wl in "${workloads[@]}"; do
	for i in $(seq 1 "$pairs"); do
		echo "$wl: pair $i/$pairs" >&2
		if [ $((i % 2)) -eq 1 ]; then
			side parent "$tree" "$parent" "$wl"
			side change "$root" "$change" "$wl"
		else
			side change "$root" "$change" "$wl"
			side parent "$tree" "$parent" "$wl"
		fi
	done
done

for s in parent change; do
	if [ ! -s "$out/$s/results.jsonl" ]; then
		echo "pairs: no $s run completed (see $out/$s.log)" >&2
		exit 1
	fi
done

# values SIDE WORKLOAD GROUP METRIC prints one value a run, in run order;
# GROUP is metrics (end to end) or extra.
values() {
	jq -r --arg w "$2" --arg g "$3" --arg m "$4" \
		'select(.workload == $w and .trace == false) | .[$g][$m].value // "nan"' \
		"$out/$1/results.jsonl"
}

# One tab-separated row a workload and metric: group, workload, metric,
# won, pairs, then the parent's and the change's first quartile, median
# and third quartile. Quartiles interpolate between order statistics, so
# the median is bench's median.
summary="$out/summary.tsv"
: >"$summary"
for wl in "${workloads[@]}"; do
	mapfile -t extras < <(jq -r --arg w "$wl" \
		'select(.workload == $w and .trace == false) | .extra | to_entries[] |
		 "\(.key) \(if .value.unit == "1/s" then "higher" else "lower" end)"' \
		"$out/change/results.jsonl" | sort -u)
	for entry in "${metrics[@]/#/metrics }" "${extras[@]/#/extra }"; do
		read -r group m better <<<"$entry"
		paste <(values parent "$wl" "$group" "$m") <(values change "$wl" "$group" "$m") |
			awk -v group="$group" -v wl="$wl" -v m="$m" -v better="$better" '
			function q(a, n, p,   x, lo) {
				x = p * (n - 1); lo = int(x)
				return lo + 1 < n ? a[lo] + (x - lo) * (a[lo + 1] - a[lo]) : a[lo]
			}
			function isort(a, n,   i, j, t) {
				for (i = 1; i < n; i++)
					for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
			}
			BEGIN { n = 0; won = 0 }
			{
				p[n] = $1; c[n] = $2; n++
				if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) won++
			}
			END {
				isort(p, n); isort(c, n)
				printf "%s\t%s\t%s\t%d\t%d\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\n", group, wl, m, won, n,
					q(p, n, 0.25), q(p, n, 0.5), q(p, n, 0.75), q(c, n, 0.25), q(c, n, 0.5), q(c, n, 0.75)
			}' >>"$summary"
	done
done

echo "parent $parent, change $change, $pairs alternating pairs"
for group in metrics extra; do
	[ "$group" = metrics ] && echo "end-to-end metrics" || echo "extra metrics (no bound)"
	printf '%-14s %-26s %5s %12s %25s %12s %25s %9s\n' workload metric won \
		parent "[q1 q3]" change "[q1 q3]" chg/par
	awk -F '\t' -v group="$group" '$1 == group {
		gain = $4 >= 0.9 * $5 && ($10 - $7 > $8 - $6 || $7 - $10 > $8 - $6) ? "  gain" : ""
		printf "%-14s %-26s %2d/%-2d %12.6g %25s %12.6g %25s %9.4f%s\n", $2, $3, $4, $5,
			$7, "[" $6 " " $8 "]", $10, "[" $9 " " $11 "]", $7 ? $10 / $7 : 0, gain
	}' "$summary"
done

# bench marks a run noisy when the load average was high at either end of
# it; on a small box the benchmark's own clients can put it there.
for wl in "${workloads[@]}"; do
	for s in parent change; do
		jq -s -r --arg w "$wl" --arg s "$s" \
			'map(select(.workload == $w and .trace == false)) |
			 "\($w): \(map(select(.noisy)) | length) of \(length) \($s) runs marked noisy"' \
			"$out/$s/results.jsonl"
	done
done

rc=0
(
	cd cmd/bench
	export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
	go run . compare -bounds "$root/BENCHMARK.json" \
		"$out/parent/results.jsonl" "$out/change/results.jsonl"
) || rc=$?
case $rc in
0) verdict=pass ;;
1) verdict=breach ;;
*) verdict=error ;;
esac

# The change's host is the first untraced run's, picked inside jq so that
# no pipe can end jq early. A metric no run reported has quartiles awk
# prints as "nan"; they are null in the row.
host=$(jq -n -c 'first(inputs | select(.trace == false) | .host |
	{nproc, gomaxprocs, go_version, cpu_model}) // null' "$out/change/results.jsonl")
jq -R -s --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --arg parent "$parent" \
	--arg change "$change" --arg verdict "$verdict" --argjson pairs "$pairs" \
	--argjson host "$host" '
	def num: if test("nan"; "i") then null else tonumber end;
	split("\n") | map(select(length > 0) | split("\t")) |
	{date: $date, parent: $parent, change: $change, pairs: $pairs, host: $host,
	 compare: $verdict,
	 workloads: (reduce .[] as $r ({}; .[$r[1]][$r[2]] = {
		won: ($r[3] | tonumber), runs: ($r[4] | tonumber),
		parent: {q1: ($r[5] | num), median: ($r[6] | num), q3: ($r[7] | num)},
		change: {q1: ($r[8] | num), median: ($r[9] | num), q3: ($r[10] | num)}}))}
' "$summary" >"$out/row.json"
# Append only one well-formed row: BENCH_history.json is a list of objects.
if ! jq -s -e 'length == 1 and (.[0] | type == "object" and
	has("parent") and has("change") and has("pairs") and has("workloads"))' \
	"$out/row.json" >/dev/null; then
	echo "pairs: $out/row.json is not one history row; appended nothing" >&2
	exit 1
fi
history="$root/BENCH_history.json"
[ -f "$history" ] || echo '[]' >"$history"
jq --slurpfile row "$out/row.json" '. + $row' "$history" >"$out/history.json"
mv "$out/history.json" "$history"
echo "compare: $verdict; appended a row to BENCH_history.json"
