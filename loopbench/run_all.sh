#!/usr/bin/env bash
# Run every workload once and print its metrics.
# Usage: bash loopbench/run_all.sh [seed] [seconds] [trace 0|1]
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in surface12 buried12-burial batch-mixed; do
    cargo run --release --offline --quiet --manifest-path loopbench/Cargo.toml -- \
        --workload "$workload" --seed "${1:-1}" --seconds "${2:-50}" --trace "${3:-0}"
done
