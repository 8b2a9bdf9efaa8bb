#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it with the given flags.
#
# Run from the repository root:
#
#   bash ledgerbench/run.sh --workload bfce-synth --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, checkpoint state and span logs all live
# under .bench_build/ in the current directory, so a run reads and writes
# only inside the checkout. A tree without the module's go.mod fails the
# build and exits non-zero before anything is measured.
#
# Go telemetry is switched off in that config directory: in its default
# "local" mode the go command forks a detached sidecar process that can
# outlive the build, and the benchmark leaves no process behind.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
	go build -o "$out/bin/ledgerbench" ./ledgerbench
exec "$out/bin/ledgerbench" --state "$out/ledgerbench" "$@"
