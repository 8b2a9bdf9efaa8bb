#!/bin/sh
# obsbench.sh — CI smoke for the observability overhead contract.
#
# Runs BenchmarkFleetEstimateObs (the BenchmarkFleetEstimate workload at
# workers=1) with and without a metrics registry and compares the best
# (minimum) ns/op of the instrumented "registry" leg against the
# uninstrumented "noop" leg. Fails if instrumentation costs more than 5%.
#
# Each leg runs alone in its own process of one compiled test binary, the
# legs alternating (and swapping which goes first each round), so neither
# leg inherits the other's heap, caches or fixed place in the order, and
# load on the host during the run falls on both alike. Min-of-N is the
# standard noise defence for small CI boxes: the minimum is the run least
# perturbed by scheduling, so a genuine regression moves it while
# transient load does not.
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

awk -v limit=1.05 '
/^BenchmarkFleetEstimateObs\/noop/     { if (min_noop == 0 || $3 < min_noop) min_noop = $3 }
/^BenchmarkFleetEstimateObs\/registry/ { if (min_reg == 0 || $3 < min_reg)  min_reg = $3 }
END {
    if (min_noop == 0 || min_reg == 0) {
        print "obsbench: missing benchmark legs in output" > "/dev/stderr"
        exit 1
    }
    ratio = min_reg / min_noop
    printf "obsbench: noop %d ns/op, registry %d ns/op, ratio %.3f (limit %.2f)\n",
        min_noop, min_reg, ratio, limit
    if (ratio > limit) {
        print "obsbench: FAIL - instrumented fleet run exceeds the 5% overhead budget" > "/dev/stderr"
        exit 1
    }
}' "$tmp/out"
