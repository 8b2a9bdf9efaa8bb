#!/bin/sh
# chaossmoke.sh — CI smoke for crash recovery and chaos tolerance.
#
# Phase 1 boots rfidserved with a durable -state-dir, collects golden
# pinned-salt estimate replies and two acked monitor rounds, then SIGKILLs
# the server mid-burst (a real crash: no drain, no fsync beyond what the
# checkpoint already forced). Phase 2 restarts over the same state
# directory and requires (a) the pinned-salt replies byte-identical to the
# goldens, (b) the monitor to continue at round 3 — acked work is never
# lost, the counter never restarts — and (c) a fresh load burst through
# server-side fault injection to succeed via client retries.
#
# Usage: scripts/chaossmoke.sh [duration]   (default burst duration: 2s)
set -eu

duration=${1:-2s}
workdir=$(mktemp -d)
server_pid=""
trap 'kill -9 "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/rfidserved" ./cmd/rfidserved
go build -o "$workdir/rfidload" ./cmd/rfidload

statedir="$workdir/state"

# boot_server <extra flags...>: starts rfidserved on an ephemeral port
# over $statedir and sets $server_pid/$addr.
boot_server() {
    : >"$workdir/served.out"
    "$workdir/rfidserved" -addr 127.0.0.1:0 -quiet -state-dir "$statedir" "$@" \
        >"$workdir/served.out" 2>"$workdir/served.err" &
    server_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(head -n 1 "$workdir/served.out" 2>/dev/null || true)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "chaossmoke: server never printed its address" >&2
        cat "$workdir/served.err" >&2
        exit 1
    fi
}

# estimate <salt> <outfile>: one pinned-salt estimate.
estimate() {
    curl -fsS -X POST "http://$addr/v1/estimate" \
        -d "{\"system\":{\"n\":10000,\"seed\":3,\"synthetic\":true},\"epsilon\":0.1,\"delta\":0.1,\"salt\":$1}" \
        >"$2"
}

# monitor_round <salt>: one pinned-salt monitor round; prints the reply.
monitor_round() {
    curl -fsS -X POST "http://$addr/v1/monitor" \
        -d "{\"name\":\"smoke\",\"system\":{\"n\":20000,\"seed\":5,\"synthetic\":true},\"epsilon\":0.1,\"delta\":0.1,\"salt\":$1}"
}

# rounds_of <reply>: extracts the completed-round counter.
rounds_of() {
    printf '%s' "$1" | sed -n 's/.*"rounds":\([0-9]*\).*/\1/p'
}

echo "chaossmoke: phase 1 — goldens, acked monitor rounds, SIGKILL"
boot_server
for salt in 161 162 163; do
    estimate "$salt" "$workdir/golden-$salt.json"
done
r1=$(rounds_of "$(monitor_round 177)")
r2=$(rounds_of "$(monitor_round 178)")
if [ "$r1" != 1 ] || [ "$r2" != 2 ]; then
    echo "chaossmoke: warm-up monitor rounds were $r1,$r2; want 1,2" >&2
    exit 1
fi

# Crash mid-burst: load in flight, then SIGKILL — no drain, no shutdown.
"$workdir/rfidload" -url "http://$addr" -c 8 -duration "$duration" -json \
    >"$workdir/burst1.json" &
load_pid=$!
sleep 0.5
kill -9 "$server_pid"
wait "$load_pid" || true

echo "chaossmoke: phase 2 — recover over $statedir"
boot_server
curl -fsS "http://$addr/readyz" >/dev/null

for salt in 161 162 163; do
    estimate "$salt" "$workdir/replay-$salt.json"
    cmp -s "$workdir/golden-$salt.json" "$workdir/replay-$salt.json" || {
        echo "chaossmoke: pinned-salt replay for salt $salt diverged after recovery" >&2
        diff "$workdir/golden-$salt.json" "$workdir/replay-$salt.json" >&2 || true
        exit 1
    }
done
echo "chaossmoke: pinned-salt replies byte-identical across the crash"

r3=$(rounds_of "$(monitor_round 179)")
if [ "$r3" != 3 ]; then
    echo "chaossmoke: post-crash monitor round reported rounds=$r3; want 3 (acked rounds lost or counter restarted)" >&2
    exit 1
fi
echo "chaossmoke: monitor continued at round 3 after the crash"

# Restart once more with server-side fault injection and drive the
# resilient client through it. Terminal failures are possible (a request
# can draw faults on every attempt), so the gate is work-done + retries
# observed, not zero errors.
kill -9 "$server_pid"
boot_server -chaos 0.3 -chaos-seed 7
curl -fsS "http://$addr/healthz" >/dev/null   # probes are spared by the injector
"$workdir/rfidload" -url "http://$addr" -c 8 -duration "$duration" \
    -retries 6 -json >"$workdir/burst2.json"
ok=$(sed -n 's/.*"200": \([0-9]*\).*/\1/p' "$workdir/burst2.json")
retries=$(sed -n 's/.*"retries": \([0-9]*\).*/\1/p' "$workdir/burst2.json")
if [ -z "$ok" ] || [ "$ok" -eq 0 ]; then
    echo "chaossmoke: no request succeeded under chaos" >&2
    cat "$workdir/burst2.json" >&2
    exit 1
fi
if [ -z "$retries" ] || [ "$retries" -eq 0 ]; then
    echo "chaossmoke: chaos run recorded zero retries — injection not exercised" >&2
    cat "$workdir/burst2.json" >&2
    exit 1
fi
echo "chaossmoke: $ok requests succeeded under chaos ($retries retries)"

kill -TERM "$server_pid"
for _ in $(seq 1 100); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "chaossmoke: server did not drain within 10s" >&2
    exit 1
fi
echo "chaossmoke: PASS"
