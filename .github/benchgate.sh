#!/usr/bin/env bash
# The benchmark regression gate: the repository's benchmark (benchmark/,
# bounds in BENCHMARK.json) run at the merge-base of BASE-REV and HEAD
# ("parent") and at HEAD ("head") as alternating pairs on one machine.
#
#	bash .github/benchgate.sh BASE-REV
#
# Each side is built by its own benchmark/run.sh, and every workload in
# HEAD's BENCHMARK.json runs untraced at that side's run_seconds. Pair i
# runs the parent first when i is odd and the head first when it is even, so
# a drift in the machine lands on both sides. A run's last line is its JSON
# result.
#
# The gate fails when any run reports "correct": false, or when, for an
# end-to-end metric, the head median is worse than the parent median by more
# than the metric's bound AND either
#   - the gap is wider than both sides' interquartile ranges, or
#   - every head run is worse than every parent run (with seven runs a side,
#     a no-op change does this by chance once in 3 432 cells).
# Otherwise a cell where either side's interquartile range is wider than its
# bound cannot resolve a bound-sized change: it is printed as "unresolved"
# and does not fail the gate. Both sides' spreads count because a latency
# can read bimodally run to run; the runs of one side can then all land in
# one mode by chance, and only the other side's spread shows it. Seven
# pairs, not five, for the same reason: the more runs a side has, the less
# likely they all land in one mode.
set -euo pipefail

pairs=7

base_rev=${1:?usage: benchgate.sh BASE-REV}
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git merge-base "$base_rev" HEAD)

work=$(mktemp -d)
cleanup() {
	git worktree remove --force "$work/parent" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT
git worktree add --quiet --detach "$work/parent" "$base"
declare -A dir=([parent]="$work/parent" [head]="$root")

echo "benchgate: parent $(git rev-parse --short "$base"), head $(git rev-parse --short HEAD), $pairs pairs"

workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
bad=0

# A workload the parent's BENCHMARK.json does not name yet runs on the head
# only: it is checked for correctness and has no cells to compare.
parent_has() {
	jq -e --arg w "$1" 'any(.workloads[]; .name == $w)' "${dir[parent]}/BENCHMARK.json" >/dev/null
}

# run SIDE WORKLOAD: one untraced run, its result line appended to
# $work/SIDE.WORKLOAD. A run that dies before its result line counts as
# incorrect.
run() {
	local out line
	out=$(bash "${dir[$1]}/benchmark/run.sh" --workload "$2" --trace 0) || true
	line=$(printf '%s\n' "$out" | tail -n 1)
	if ! jq -e 'has("correct")' >/dev/null 2>&1 <<<"$line"; then
		line='{"correct":false,"metrics":{}}'
	fi
	printf '%s\n' "$line" >>"$work/$1.$2"
	if [ "$(jq -r .correct <<<"$line")" != true ]; then
		echo "benchgate: FAIL $2: $1 run not correct: $line"
		bad=1
	fi
}

for i in $(seq 1 "$pairs"); do
	for w in $workloads; do
		if [ $((i % 2)) -eq 1 ]; then
			! parent_has "$w" || run parent "$w"
			run head "$w"
		else
			run head "$w"
			! parent_has "$w" || run parent "$w"
		fi
	done
	echo "benchgate: pair $i/$pairs done"
done

# stats SIDE WORKLOAD METRIC FLOOR: "median q1 q3 min max" of the metric
# over the side's runs, every value first raised to FLOOR; nothing when the
# side has no value. Quartiles interpolate linearly between order
# statistics.
stats() {
	[ -f "$work/$1.$2" ] || return 0
	jq -r --arg m "$3" '.metrics[$m].value // empty' "$work/$1.$2" | sort -g |
		awk -v floor="$4" '
			{ v[NR] = ($1 < floor) ? floor : $1 }
			function q(p,   h, k) { h = 1 + (NR - 1) * p; k = int(h); return v[k] + (h - k) * (v[k + 1] - v[k]) }
			END { if (NR > 0) print q(0.5), q(0.25), q(0.75), v[1], v[NR] }'
}

# One row per workload and end-to-end metric. diff is how much worse the
# head median is than the parent median, as a share of the parent median
# (negative: the head is better), whatever the metric's direction.
mapfile -t metrics < <(jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' BENCHMARK.json)
printf '%-14s %-15s %30s %30s %8s %6s  %s\n' workload metric "parent median [q1, q3]" "head median [q1, q3]" diff bound verdict
for w in $workloads; do
	for spec in "${metrics[@]}"; do
		read -r m better bound <<<"$spec"
		# setup_s below 0.2 s is not resolved: both sides are raised to that
		# floor before they are compared, as benchmark/compare.go
		# (setupFloorS) does for an A/A pair.
		floor=0
		[ "$m" = setup_s ] && floor=0.2
		p=$(stats parent "$w" "$m" "$floor")
		h=$(stats head "$w" "$m" "$floor")
		if [ -z "$p" ] || [ -z "$h" ]; then
			printf '%-14s %-15s %30s\n' "$w" "$m" "no data on one side"
			continue
		fi
		verdict=$(awk -v better="$better" -v bound="$bound" -v w="$w" -v m="$m" '
			{ pm = $1; pq1 = $2; pq3 = $3; pmin = $4; pmax = $5; hm = $6; hq1 = $7; hq3 = $8; hmin = $9; hmax = $10 }
			END {
				iqr = (pq3 - pq1 > hq3 - hq1) ? pq3 - pq1 : hq3 - hq1
				gap = (better == "higher") ? pm - hm : hm - pm
				worse = (pm != 0) ? gap / pm : (gap > 0 ? 1 : 0)
				apart = (better == "higher") ? (hmax < pmin) : (hmin > pmax)
				if (worse > bound && (apart || (gap > iqr && iqr <= bound * pm))) v = "FAIL"
				else if (iqr > bound * pm) v = "unresolved"
				else v = "ok"
				printf "%-14s %-15s %30s %30s %+7.1f%% %5.0f%%  %s\n", w, m,
					sprintf("%.6g [%.6g, %.6g]", pm, pq1, pq3), sprintf("%.6g [%.6g, %.6g]", hm, hq1, hq3),
					100 * worse, 100 * bound, v
			}' <<<"$p $h")
		echo "$verdict"
		case $verdict in *FAIL) bad=1 ;; esac
	done
done

if [ "$bad" -ne 0 ]; then
	echo "benchgate: FAIL"
	exit 1
fi
echo "benchgate: ok"
