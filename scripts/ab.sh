#!/usr/bin/env bash
# Same-runner host-time A/B: runs the benchmark at a base revision and at
# this checkout, alternating, and fails when this checkout (head) is
# clearly slower.
#
#   scripts/ab.sh <base-rev>
#
# The base is checked out as a git worktree under .bench_build/ab/ and
# removed on exit. For each gated workload (sim-stepped, catalog, then
# serve-mix) the script runs 10 pairs of
#
#   bash perfbench/run.sh --workload W --seconds 5 --trace 0 --seed P
#
# one at base and one at head, with the same seed P = pair number; odd
# pairs run base first and even pairs head first, so host drift falls on
# both sides. Each run's last output line is its JSON result. For every
# end-to-end metric in BENCHMARK.json ("better" and "bound" come from
# there) it prints both medians and the pairs head lost (head strictly
# worse). A workload fails when
#   - any head run reports "correct": false,
#   - head failed more operations than base over the 10 pairs, or
#   - a metric's head median is worse than base's by more than its bound
#     and head lost at least 9 of the 10 pairs.
# The first failing workload stops the script with exit status 1. Logs
# and results stay in .bench_build/ab/out/.
set -euo pipefail

if [[ $# -ne 1 ]]; then
	echo "usage: scripts/ab.sh <base-rev>" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
root=$(pwd)
rev=$(git rev-parse --verify "$1^{commit}")
pairs=10
losses=9

ab="$root/.bench_build/ab"
base="$ab/base"
out="$ab/out"
git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
git worktree prune
rm -rf "$out"
mkdir -p "$out"
git worktree add --quiet --detach "$base" "$rev"
trap 'git -C "$root" worktree remove --force "$base"' EXIT
echo "ab: base $rev, head $(git rev-parse HEAD) plus working tree" >&2

# run SIDE WORKLOAD PAIR: one benchmark run; its result line goes to
# $out/WORKLOAD-SIDE-PAIR.json. Each side builds into its own directory, and
# base's build cache outlives the worktree.
run() {
	local side=$1 w=$2 p=$3 dir build
	local log="$out/$w-$side-$p.log"
	if [[ $side = base ]]; then
		dir=$base build=$ab/build
	else
		dir=$root build=$root/.bench_build
	fi
	if ! (cd "$dir" && CARGO_TARGET_DIR="$build" bash perfbench/run.sh \
		--workload "$w" --seconds 5 --trace 0 --seed "$p") >"$log" 2>&1; then
		echo "ab: $side run of $w, pair $p, exited non-zero; $log ends:" >&2
		tail -n 20 "$log" >&2
		exit 1
	fi
	tail -n 1 "$log" | jq -c . >"$out/$w-$side-$p.json"
}

# results SIDE WORKLOAD: that side's result lines in pair order.
results() {
	local p
	for p in $(seq "$pairs"); do
		cat "$out/$2-$1-$p.json"
	done
}

# verdict WORKLOAD: prints the per-metric table and exits 1 on failure.
verdict() {
	local w=$1 report="$out/$1-verdict.json"
	jq -n --argjson losses "$losses" \
		--slurpfile bench BENCHMARK.json \
		--slurpfile base <(results base "$w") \
		--slurpfile head <(results head "$w") '
		def median: sort | if length % 2 == 1 then .[length / 2 | floor]
			else (.[length / 2 - 1] + .[length / 2]) / 2 end;
		[$bench[0].end_to_end[]
			| . as $m
			| select(all($base[], $head[]; .metrics[$m.name] != null))
			| [range($head | length) as $i
				| {b: $base[$i].metrics[$m.name].value, h: $head[$i].metrics[$m.name].value}] as $p
			| ($p | map(.b) | median) as $bm
			| ($p | map(.h) | median) as $hm
			| (if $m.better == "lower"
				then {lost: ($p | map(select(.h > .b)) | length), worse: ($hm > $bm * (1 + $m.bound))}
				else {lost: ($p | map(select(.h < .b)) | length), worse: ($hm < $bm * (1 - $m.bound))}
				end) as $v
			| {name: $m.name, better: $m.better, bound: $m.bound, base: $bm, head: $hm,
				lost: $v.lost, fail: ($v.worse and $v.lost >= $losses)}] as $metrics
		| {incorrect: ([$head[] | select(.correct | not)] | length),
			base_failed: ([$base[].failed] | add),
			head_failed: ([$head[].failed] | add),
			metrics: $metrics}
		| .fail = (.incorrect > 0 or .head_failed > .base_failed or any(.metrics[]; .fail))
		' >"$report"
	echo "== $w: $pairs pairs"
	printf '%-18s %-6s %6s %12s %12s %8s %5s\n' metric better bound base head delta lost
	local name better bound bm hm lost fail delta
	while IFS=$'\t' read -r name better bound bm hm lost fail; do
		delta=$(awk -v b="$bm" -v h="$hm" 'BEGIN { if (b == 0) print "n/a"; else printf "%+.1f%%", (h - b) / b * 100 }')
		printf '%-18s %-6s %6s %12.5g %12.5g %8s %2s/%s%s\n' \
			"$name" "$better" "$bound" "$bm" "$hm" "$delta" "$lost" "$pairs" "$([[ $fail = true ]] && echo '  FAIL')"
	done < <(jq -r '.metrics[] | [.name, .better, .bound, .base, .head, .lost, .fail] | @tsv' "$report")
	jq -r '"operations failed: base \(.base_failed), head \(.head_failed); head runs with correct:false: \(.incorrect)"' "$report"
	if jq -e .fail "$report" >/dev/null; then
		echo "ab: $w: head is worse than base $rev (see above)" >&2
		exit 1
	fi
	echo "$w: ok"
}

for w in sim-stepped catalog serve-mix; do
	for p in $(seq "$pairs"); do
		if ((p % 2)); then
			run base "$w" "$p"
			run head "$w" "$p"
		else
			run head "$w" "$p"
			run base "$w" "$p"
		fi
	done
	verdict "$w"
done
echo "ab: head is not worse than base $rev"
