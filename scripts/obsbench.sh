#!/bin/sh
# obsbench.sh — CI smoke for the observability overhead contract.
#
# Runs BenchmarkFleetEstimateObs (the BenchmarkFleetEstimate workload at
# workers=1) with and without a metrics registry, one round at a time: a
# round runs the uninstrumented "noop" leg and the instrumented "registry"
# leg back to back and records their ns/op ratio registry/noop. Fails if
# the median of the per-round ratios exceeds 1.05 (instrumentation costs
# more than 5%).
#
# Each leg runs alone in its own process of one compiled test binary, the
# legs alternating (and swapping which goes first each round), so neither
# leg inherits the other's heap, caches or fixed place in the order. On a
# shared host, load comes in stretches that slow whole runs; the two legs
# of a round run within a fraction of a second of each other, so a stretch
# usually slows both and cancels out of their ratio, and the median
# ignores the few rounds whose legs a change of load split.
#
# Usage: scripts/obsbench.sh [runs]   (default: 30 runs per leg)
set -eu

runs=${1:-30}
iters=20 # fleet batches per run; one batch is 32 BFCE sessions

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go test -c -o "$tmp/obs.test" .

leg() {
	"$tmp/obs.test" -test.run '^$' -test.bench "^BenchmarkFleetEstimateObs\$/^$1\$" \
		-test.benchtime "${iters}x" | grep '^BenchmarkFleetEstimateObs/' | tee -a "$tmp/out"
}

i=0
while [ "$i" -lt "$runs" ]; do
	if [ $((i % 2)) -eq 0 ]; then
		leg noop
		leg registry
	else
		leg registry
		leg noop
	fi
	i=$((i + 1))
done

# Pair the two legs of each round (they print in the order they ran) and
# emit one ratio per round.
awk '
/^BenchmarkFleetEstimateObs\/noop/     { noop = $3 }
/^BenchmarkFleetEstimateObs\/registry/ { reg = $3 }
noop > 0 && reg > 0 { printf "%.6f\n", reg / noop; noop = 0; reg = 0 }
' "$tmp/out" | sort -n >"$tmp/ratios"

awk -v limit=1.05 -v runs="$runs" '
{ r[NR] = $1 }
END {
    if (NR != runs) {
        printf "obsbench: %d paired rounds in the output, want %d\n", NR, runs > "/dev/stderr"
        exit 1
    }
    median = (NR % 2) ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
    printf "obsbench: median registry/noop ratio %.3f over %d rounds (range %.3f-%.3f, limit %.2f)\n",
        median, NR, r[1], r[NR], limit
    if (median > limit) {
        print "obsbench: FAIL - instrumented fleet run exceeds the 5% overhead budget" > "/dev/stderr"
        exit 1
    }
}' "$tmp/ratios"
