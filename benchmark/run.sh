#!/usr/bin/env bash
# The benchmark's single entry point: build `repro` (from the root
# workspace, with the root's release profile — the binary users get) and
# the harness (a package of its own), then hand over every argument.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh [--seed N] [--seconds S] --runs K --out FILE
#   bash benchmark/run.sh --compare A.json B.json
#   bash benchmark/run.sh --bless
#
# Run from anywhere; works from the repo root. Build chatter goes to
# stderr, results to stdout (last line: the result object).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    --target-dir "$target" -p pdesched-bench --bin repro >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir "$target" >&2
exec "$target/release/harness" --repro "$target/release/repro" "$@"
