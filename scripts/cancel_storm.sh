#!/usr/bin/env bash
# Cancel storm: repeatedly SIGINT, then SIGKILL, a supervised `repro`
# run at randomized delays, then resume once without interference.
# Verifies the paper's invariant that interruption — orderly or not —
# never changes a measured value:
#
#   * every interrupted run exits 10 (signal) with an "interrupted"
#     section in its JSON, or 0 if it happened to finish first;
#   * every killed run exits 137 and writes no JSON (or exits 0 if it
#     finished first), and at least one kill lands while the store is
#     still short of the golden run's entries;
#   * the final resumed run exits 0 with "interrupted": null and no
#     point failures;
#   * the traffic store after the storm is entry-for-entry identical to
#     the store of one uninterrupted golden run, and the figure series
#     in the JSON match bit-for-bit.
#
# Usage: scripts/cancel_storm.sh [path/to/repro] [rounds]
set -ueo pipefail

REPRO=${1:-target/release/repro}
ROUNDS=${2:-5}
TARGETS=(fig1 sweep faultcheck)
WORK=$(mktemp -d -t cancel-storm-XXXXXX)
trap 'rm -rf "$WORK"' EXIT

echo "== cancel storm: golden run =="
"$REPRO" --store "$WORK/golden.txt" --json "$WORK/golden.json" \
    --threads 2 "${TARGETS[@]}" >/dev/null

# One stormed run: signal a supervised run after a randomized delay in
# [0.1, 1.3)s — early enough to land mid-sweep, spread enough to hit
# different points each round. Sets $delay and $code.
stormed_run() {
    delay=$(awk -v r="$RANDOM" 'BEGIN { printf "%.3f", 0.1 + (r % 1200) / 1000 }')
    rm -f "$WORK/storm.json"
    "$REPRO" --store "$WORK/storm.txt" --json "$WORK/storm.json" \
        --threads 2 "${TARGETS[@]}" >/dev/null 2>"$WORK/storm.err" &
    pid=$!
    sleep "$delay"
    kill "-$1" "$pid" 2>/dev/null || true
    set +e
    wait "$pid"
    code=$?
    set -e
}

echo "== cancel storm: $ROUNDS interrupted runs =="
for i in $(seq 1 "$ROUNDS"); do
    stormed_run INT
    echo "round $i: delay ${delay}s, exit $code"
    if [ "$code" != 10 ] && [ "$code" != 0 ]; then
        echo "FAIL: interrupted run must exit 10 (or 0 if already done), got $code"
        cat "$WORK/storm.err"
        exit 1
    fi
    if [ "$code" = 10 ] && ! grep -q '"exit_code": 10' "$WORK/storm.json"; then
        echo "FAIL: interrupted JSON must carry the interrupted section"
        cat "$WORK/storm.json"
        exit 1
    fi
done

# Entry lines of a store (a killed run may not even have created it).
entries() { if [ -f "$1" ]; then grep -vc '^#' "$1" || true; else echo 0; fi; }

echo "== cancel storm: $ROUNDS killed runs =="
golden_entries=$(entries "$WORK/golden.txt")
landed=0
for i in $(seq 1 "$ROUNDS"); do
    stormed_run KILL
    have=$(entries "$WORK/storm.txt")
    echo "kill round $i: delay ${delay}s, exit $code, $have/$golden_entries entries"
    if [ "$code" != 137 ] && [ "$code" != 0 ]; then
        echo "FAIL: killed run must exit 137 (or 0 if already done), got $code"
        cat "$WORK/storm.err"
        exit 1
    fi
    if [ "$code" = 137 ]; then
        if [ -e "$WORK/storm.json" ]; then
            echo "FAIL: a SIGKILLed run cannot have written its JSON report"
            exit 1
        fi
        if [ "$have" -lt "$golden_entries" ]; then
            landed=$((landed + 1))
        fi
    fi
done
# Like the delays above, this assumes a full run outlasts 1.3 s (it takes
# 2-4 s on a 2-vCPU host, most of it analytic ranking between sweeps).
if [ "$landed" = 0 ]; then
    echo "FAIL (vacuous): no SIGKILL landed on an incomplete store"
    exit 1
fi

echo "== cancel storm: final resumed run =="
"$REPRO" --store "$WORK/storm.txt" --json "$WORK/final.json" \
    --threads 2 "${TARGETS[@]}" >/dev/null

python3 - "$WORK" <<'EOF'
import json, sys
work = sys.argv[1]

def store_entries(path):
    with open(path) as f:
        return sorted(l for l in f.read().splitlines() if l and not l.startswith("#"))

golden = json.load(open(f"{work}/golden.json"))
final = json.load(open(f"{work}/final.json"))
assert final["interrupted"] is None, final["interrupted"]
assert final["failures"] == [], final["failures"]
assert golden["figures"] == final["figures"], "figure series diverged after storm"
g, s = store_entries(f"{work}/golden.txt"), store_entries(f"{work}/storm.txt")
assert g == s, f"stores diverged: {len(g)} golden vs {len(s)} storm entries"
print(f"cancel storm OK: {len(s)} store entries and all figure series bit-identical")
EOF
