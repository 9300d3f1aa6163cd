#!/usr/bin/env bash
# Cancel storm: repeatedly SIGINT, then SIGKILL, a supervised `repro`
# run at randomized delays, then resume once without interference.
# Verifies the paper's invariant that interruption — orderly or not —
# never changes a measured value:
#
#   * every interrupted run exits 10 (signal) with an "interrupted"
#     section in its JSON, or 0 if it happened to finish first, and at
#     least one exits 10;
#   * every killed run exits 137 and writes no JSON (or exits 0 if it
#     finished first), and at least one kill lands while the store is
#     still short of the golden run's entries;
#   * the final run resumes a store such a kill left incomplete, exits 0
#     with "interrupted": null and no point failures;
#   * the traffic store after the resume is entry-for-entry identical to
#     the store of one uninterrupted golden run, and the figure series
#     in the JSON match bit-for-bit.
#
# Every stormed round starts from an empty store, so each one has a whole
# cold run to land in; its delay is a random fraction of the golden run's
# measured wall time, so the signal lands mid-run on a fast host and a
# slow one alike.
#
# Usage: scripts/cancel_storm.sh [path/to/repro] [rounds]
set -ueo pipefail

REPRO=${1:-target/release/repro}
ROUNDS=${2:-5}
TARGETS=(fig1 sweep faultcheck)
WORK=$(mktemp -d -t cancel-storm-XXXXXX)
trap 'rm -rf "$WORK"' EXIT

now_ms() { echo $(($(date +%s%N) / 1000000)); }

echo "== cancel storm: golden run =="
start=$(now_ms)
"$REPRO" --store "$WORK/golden.txt" --json "$WORK/golden.json" \
    --threads 2 "${TARGETS[@]}" >/dev/null
golden_ms=$(($(now_ms) - start))
echo "golden run: ${golden_ms} ms"

# One stormed run on a fresh store ($store): signal it after a delay drawn
# uniformly from [0.1, 0.9) of the golden wall time — late enough for the
# signal handlers to be installed, early enough to land mid-run, spread
# enough to hit different points each round. Sets $delay and $code.
stormed_run() {
    store="$WORK/$2.txt"
    delay=$(awk -v r="$RANDOM" -v ms="$golden_ms" \
        'BEGIN { printf "%.3f", (0.1 + 0.8 * (r % 1000) / 1000) * ms / 1000 }')
    rm -f "$WORK/storm.json"
    "$REPRO" --store "$store" --json "$WORK/storm.json" \
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
interrupted=0
for i in $(seq 1 "$ROUNDS"); do
    stormed_run INT "int$i"
    echo "round $i: delay ${delay}s, exit $code"
    if [ "$code" != 10 ] && [ "$code" != 0 ]; then
        echo "FAIL: interrupted run must exit 10 (or 0 if already done), got $code"
        cat "$WORK/storm.err"
        exit 1
    fi
    if [ "$code" = 10 ]; then
        if ! grep -q '"exit_code": 10' "$WORK/storm.json"; then
            echo "FAIL: interrupted JSON must carry the interrupted section"
            cat "$WORK/storm.json"
            exit 1
        fi
        interrupted=$((interrupted + 1))
    fi
done
if [ "$interrupted" = 0 ]; then
    echo "FAIL (vacuous): no SIGINT landed before its run finished"
    exit 1
fi

# Entry lines of a store (a killed run may not even have created it).
entries() { if [ -f "$1" ]; then grep -vc '^#' "$1" || true; else echo 0; fi; }

echo "== cancel storm: $ROUNDS killed runs =="
golden_entries=$(entries "$WORK/golden.txt")
landed=0
resume=""
for i in $(seq 1 "$ROUNDS"); do
    stormed_run KILL "kill$i"
    have=$(entries "$store")
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
            # Resume the store that holds the most entries short of
            # complete: the one most kills deep into the run left behind.
            if [ -z "$resume" ] || [ "$have" -ge "$(entries "$resume")" ]; then
                resume=$store
            fi
        fi
    fi
done
if [ "$landed" = 0 ]; then
    echo "FAIL (vacuous): no SIGKILL landed on an incomplete store"
    exit 1
fi

echo "== cancel storm: final run resumes $(basename "$resume") ($(entries "$resume")/$golden_entries entries) =="
"$REPRO" --store "$resume" --json "$WORK/final.json" \
    --threads 2 "${TARGETS[@]}" >/dev/null

python3 - "$WORK" "$resume" <<'PY'
import json, sys
work, resumed = sys.argv[1], sys.argv[2]

def store_entries(path):
    with open(path) as f:
        return sorted(l for l in f.read().splitlines() if l and not l.startswith("#"))

golden = json.load(open(f"{work}/golden.json"))
final = json.load(open(f"{work}/final.json"))
assert final["interrupted"] is None, final["interrupted"]
assert final["failures"] == [], final["failures"]
assert golden["figures"] == final["figures"], "figure series diverged after storm"
g, s = store_entries(f"{work}/golden.txt"), store_entries(resumed)
assert g == s, f"stores diverged: {len(g)} golden vs {len(s)} storm entries"
print(f"cancel storm OK: {len(s)} store entries and all figure series bit-identical")
PY
