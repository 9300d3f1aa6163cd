#!/usr/bin/env bash
# Serve storm: run the schedule-query service under a client herd while
# injecting request drops and a wedged measurement (REPRO_FAULT),
# SIGKILLing random clients and then the server itself mid-activity,
# restarting it, and replaying the full request list. Verifies the
# service's crash-tolerance claims end to end:
#
#   * a client shot (or dropped by an injected socket fault) mid-request
#     never wedges the server — later requests on fresh connections are
#     answered;
#   * a server shot mid-measurement (the injected hang is the window the
#     SIGKILL lands in) never corrupts the store — the restarted server
#     quarantines any torn tail and re-measures only what was lost;
#   * after the final drain, the store is bit-for-bit identical to a
#     serial golden run: herd interleaving, coalescing, injected faults,
#     and crash/restart history must leave no fingerprint in the bytes.
#
# Usage: scripts/serve_storm.sh [path/to/repro] [rounds]
set -ueo pipefail

REPRO=${1:-target/release/repro}
ROUNDS=${2:-3}
WORK=$(mktemp -d -t serve-storm-XXXXXX)
trap 'rm -rf "$WORK"' EXIT

# The fixed request list. Every round's herd draws from exactly this
# list, so the set of measured points — and therefore the compacted
# store bytes — is a pure function of the list, not of the storm.
REQUESTS=(
    '{"machine":"i5","n":8,"threads":2,"top":2}'
    '{"machine":"i5","n":16,"threads":4,"top":1}'
    '{"machine":"magny","n":8,"threads":4,"top":1}'
    '{"machine":"sandy","n":8,"threads":2,"top":1}'
)

SERVER=
PORT=

# Start the service on an ephemeral port against store $1, stderr to
# $2; scrape the bound port from the banner.
start_server() {
    "$REPRO" serve --addr 127.0.0.1:0 --store "$1" 2>"$2" &
    SERVER=$!
    PORT=
    for _ in $(seq 1 200); do
        PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$2" | head -1)
        [ -n "$PORT" ] && return 0
        if ! kill -0 "$SERVER" 2>/dev/null; then break; fi
        sleep 0.05
    done
    echo "FAIL: server never printed its bound address"
    cat "$2"
    exit 1
}

# One request, one response line on stdout (empty when the connection
# was dropped without an answer).
ask() {
    local resp=""
    exec 3<>"/dev/tcp/127.0.0.1/$1" || return 1
    printf '%s\n' "$2" >&3
    IFS= read -r resp <&3 || true
    exec 3>&- 3<&-
    printf '%s\n' "$resp"
}

# Serially replay the full request list; every answer must be ok.
replay_all() {
    local req resp
    for req in "${REQUESTS[@]}"; do
        resp=$(ask "$PORT" "$req") || { echo "FAIL: connect to :$PORT"; exit 1; }
        if ! grep -q '"ok":true' <<<"$resp"; then
            echo "FAIL: request $req answered: $resp"
            exit 1
        fi
    done
}

# SIGTERM the server and require the documented drain exit (10).
drain_server() {
    kill -TERM "$SERVER" 2>/dev/null || true
    set +e
    wait "$SERVER"
    local code=$?
    set -e
    if [ "$code" -ne 10 ]; then
        echo "FAIL: drained server exit $code, want 10"
        exit 1
    fi
}

echo "== serve storm: serial golden run =="
start_server "$WORK/golden.txt" "$WORK/golden.err"
replay_all
drain_server

echo "== serve storm: $ROUNDS stormed rounds =="
client_kills=0
hangs_fired=0
for i in $(seq 1 "$ROUNDS"); do
    # Fresh store each round so every round has cold measurements to
    # shoot the server out of; the hang wedges one of them open.
    rm -f "$WORK/storm.txt" "$WORK/storm.txt".*
    REPRO_FAULT="hang-sim:$((RANDOM % 4)),drop-req:$((RANDOM % 8))" \
        "$REPRO" serve --addr 127.0.0.1:0 --store "$WORK/storm.txt" 2>"$WORK/storm.err" &
    SERVER=$!
    PORT=
    for _ in $(seq 1 200); do
        PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$WORK/storm.err" | head -1)
        [ -n "$PORT" ] && break
        sleep 0.05
    done
    [ -n "$PORT" ] || { echo "FAIL: stormed server never bound"; cat "$WORK/storm.err"; exit 1; }

    # Herd: clients hammering random requests from the fixed list.
    herd=()
    for _ in $(seq 1 6); do
        (
            while true; do
                req=${REQUESTS[$((RANDOM % ${#REQUESTS[@]}))]}
                ask "$PORT" "$req" >/dev/null 2>&1 || true
            done
        ) &
        herd+=($!)
        disown $! # keep SIGKILLed clients out of bash's job reports
    done

    # Shoot random clients mid-flight, then the server itself.
    sleep "$(awk -v r="$RANDOM" 'BEGIN { printf "%.3f", 0.1 + (r % 300) / 1000 }')"
    for _ in 1 2 3; do
        victim=${herd[$((RANDOM % ${#herd[@]}))]}
        if kill -KILL "$victim" 2>/dev/null; then
            client_kills=$((client_kills + 1))
        fi
        sleep "$(awk -v r="$RANDOM" 'BEGIN { printf "%.3f", 0.02 + (r % 80) / 1000 }')"
    done
    kill -KILL "$SERVER" 2>/dev/null || true
    set +e
    wait "$SERVER" 2>/dev/null
    for c in "${herd[@]}"; do
        kill -KILL "$c" 2>/dev/null
    done
    set -e
    if grep -q 'hanging simulation' "$WORK/storm.err"; then
        hangs_fired=$((hangs_fired + 1))
    fi

    # Restart without faults: recover the store, finish the list, drain.
    start_server "$WORK/storm.txt" "$WORK/restart.err"
    replay_all
    drain_server

    if ! cmp -s "$WORK/golden.txt" "$WORK/storm.txt"; then
        echo "FAIL: round $i store differs from the serial golden"
        diff "$WORK/golden.txt" "$WORK/storm.txt" | head -20
        exit 1
    fi
    echo "round $i: store bit-identical to the serial golden"
done

if [ "$client_kills" -eq 0 ]; then
    echo "FAIL: no SIGKILL ever landed on a client; the storm was vacuous"
    exit 1
fi
if [ "$hangs_fired" -eq 0 ]; then
    echo "FAIL: the injected hang never fired; the server kills landed in no window"
    exit 1
fi
entries=$(grep -vc '^#' "$WORK/golden.txt")
echo "serve storm OK: $entries store entries, $client_kills client kill(s), \
$hangs_fired wedged round(s), every store bit-identical to the serial golden"
