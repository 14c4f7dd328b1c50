#!/usr/bin/env bash
# Single entry point of the benchmark: builds its package offline, then
# runs it with the arguments given (see benchmark/README.md).
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--jobs J]   all workloads, both passes
#   benchmark/run.sh --repeat-check          two full sets, then compared
#   benchmark/run.sh --quick                 smoke run: checks, not numbers
#   benchmark/run.sh --scale-sweep
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/propeller-benchmark"

if [[ "${1:-}" == "--repeat-check" ]]; then
    shift
    "$bin" --out benchmark/out/set_a "$@"
    "$bin" --out benchmark/out/set_b "$@"
    exec "$bin" --compare benchmark/out/set_a/results.json benchmark/out/set_b/results.json
fi
exec "$bin" "$@"
