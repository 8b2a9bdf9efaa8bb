#!/bin/sh
# benchpairs.sh — paired ledgerbench runs of a parent commit against the
# working tree, the method a performance claim rests on.
#
# Usage: scripts/benchpairs.sh PARENT_REV WORKLOAD [PAIRS] [SECONDS] [SEED0]
#
#   PARENT_REV  a git revision to compare against, e.g. HEAD or HEAD~1
#   WORKLOAD    a ledgerbench workload, e.g. bfce-synth
#   PAIRS       pairs of runs (default 10)
#   SECONDS     length of each measured phase (default 20, the benchmark's)
#   SEED0       pair i runs both sides on seed SEED0+i (default 1)
#
# Run from the repository root. The parent is exported with git archive and
# the working tree (tracked and untracked files that .gitignore does not
# exclude) is copied, both into one temporary directory; each side is built
# and run through its own ledgerbench/run.sh, so each has its own build
# cache and on-disk state. The pairs alternate which side runs first. For
# every end-to-end metric BENCHMARK.json lists, the script prints each
# side's median and quartiles, the change's median over the parent's, and
# how many pairs the change won (ties count for neither side). Two
# verdicts follow. The gain column reads PASS when the change won at least
# nine tenths of the pairs and its median beats the parent's by more than
# the parent's interquartile range, else FAIL: the rule a claimed gain
# must meet. The regression column reads WORSE when the change's median is
# worse than the parent's by more than the metric's bound in
# BENCHMARK.json, as a fraction of the parent's median (any worsening,
# when that median is zero), else ok: the rule every end-to-end metric
# must meet. A last line names the metrics that read WORSE. The script
# only reads BENCHMARK.json. It also prints how many ops failed on each
# side. A run that
# exits non-zero (a failed build, or an output that fails the benchmark's
# correctness gate) stops the script with exit 1. The temporary directory
# is removed on exit.
set -eu

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
	echo "usage: $0 PARENT_REV WORKLOAD [PAIRS] [SECONDS] [SEED0]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-20} seed0=${5:-1}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/parent" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
(
	cd "$root"
	git ls-files -co --exclude-standard | while IFS= read -r f; do
		if [ -e "$f" ]; then printf '%s\n' "$f"; fi # a deleted file stays listed until staged
	done | tar -cf - -T -
) | tar -x -C "$tmp/change"

# run SIDE SEED: one ledgerbench run; its result line (the last line of
# standard output) goes to $tmp/SIDE.results.
run() {
	if ! (cd "$tmp/$1" && bash ledgerbench/run.sh --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0 >"$tmp/out" 2>"$tmp/err"); then
		echo "benchpairs: $1 run on seed $2 failed:" >&2
		tail -n 5 "$tmp/err" >&2
		tail -n 1 "$tmp/out" >&2
		exit 1
	fi
	tail -n 1 "$tmp/out" >>"$tmp/$1.results"
	echo "benchpairs: $1 seed $2 done"
}

i=0
while [ "$i" -lt "$pairs" ]; do
	seed=$((seed0 + i))
	if [ $((i % 2)) -eq 0 ]; then
		run parent "$seed"
		run change "$seed"
	else
		run change "$seed"
		run parent "$seed"
	fi
	i=$((i + 1))
done

# One line per run and metric: side, pair, name, value; the run's failed
# op count is the metric "failed".
for side in parent change; do
	awk -v side="$side" '
	{
		if (match($0, /"failed":[0-9]+/)) print side, NR, "failed", substr($0, RSTART + 9, RLENGTH - 9)
		s = $0
		while (match(s, /"[a-z0-9_.]+":\{"value":[-+0-9.eE]+/)) {
			m = substr(s, RSTART, RLENGTH)
			s = substr(s, RSTART + RLENGTH)
			name = m; sub(/^"/, "", name); sub(/".*/, "", name)
			val = m; sub(/.*"value":/, "", val)
			print side, NR, name, val
		}
	}' "$tmp/$side.results"
done >"$tmp/values"

# Which way each end-to-end metric improves, and by how much it may
# worsen, from BENCHMARK.json: one "name better bound" line per metric.
awk '
/"end_to_end"/ { inside = 1 }
inside && /"name"/ { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name) }
inside && /"better"/ { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b) }
inside && /"bound"/ { d = $0; sub(/.*"bound": */, "", d); sub(/[^0-9.eE+-].*/, "", d); print name, b, d }
inside && /^[ \t]*\]/ { inside = 0 }
' "$root/BENCHMARK.json" >"$tmp/better"

echo "benchpairs: $workload, $pairs pairs of ${seconds}s runs, seeds $seed0-$((seed0 + pairs - 1)), parent $rev"
awk -v pairs="$pairs" '
function sortn(a, n,    i, j, t) {
	for (i = 2; i <= n; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
}
# q returns the p-quantile of a[1..n] (sorted), interpolating linearly.
function q(a, n, p,    h, lo) {
	h = (n - 1) * p + 1
	lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
FNR == NR { better[$1] = $2; bound[$1] = $3; order[++metrics] = $1; next }
{ v[$1, $2, $3] = $4; seen[$3] = 1; if ($3 == "failed") failed[$1] += $4 }
END {
	printf "%-20s %32s %32s %6s %5s %-4s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins", "gain", "regression (bound)"
	worse = ""
	for (k = 1; k <= metrics; k++) {
		name = order[k]
		if (!(name in seen)) continue
		wins = 0
		for (i = 1; i <= pairs; i++) {
			p[i] = v["parent", i, name]; c[i] = v["change", i, name]
			if ((better[name] == "higher" && c[i] > p[i]) || (better[name] == "lower" && c[i] < p[i])) wins++
		}
		sortn(p, pairs); sortn(c, pairs)
		pm = q(p, pairs, 0.5); cm = q(c, pairs, 0.5)
		iqr = q(p, pairs, 0.75) - q(p, pairs, 0.25)
		gap = (better[name] == "higher") ? cm - pm : pm - cm
		verdict = (wins * 10 >= pairs * 9 && gap > iqr) ? "PASS" : "FAIL"
		# -gap is how much worse the change median is; past bound times
		# the parent median, the metric regressed.
		regress = (pm != 0) ? (-gap > bound[name] * (pm < 0 ? -pm : pm)) : (-gap > 0)
		if (regress) worse = worse " " name
		ratio = (pm != 0) ? sprintf("%.3f", cm / pm) : "-"
		ps = sprintf("%.6g [%.6g, %.6g]", pm, q(p, pairs, 0.25), q(p, pairs, 0.75))
		cs = sprintf("%.6g [%.6g, %.6g]", cm, q(c, pairs, 0.25), q(c, pairs, 0.75))
		printf "%-20s %32s %32s %6s %5s %-4s %s (%g)\n", name, ps, cs, ratio, wins "/" pairs, verdict, regress ? "WORSE" : "ok", bound[name]
	}
	printf "failed ops: parent %d, change %d\n", failed["parent"], failed["change"]
	print (worse == "") ? "regressions: none beyond their bounds" : "regressions beyond their bounds:" worse
}' "$tmp/better" "$tmp/values"
