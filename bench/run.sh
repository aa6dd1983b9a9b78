#!/usr/bin/env bash
# The whole benchmark in one command: offline release build, the four
# workloads untraced (end-to-end metrics) and traced (per-layer metrics),
# every metric printed by name with its unit and bound, then `bench check`.
#
#   bench/run.sh                 # seed 1, run_seconds from BENCHMARK.json
#   bench/run.sh --seed 7        # another seed
#   bench/run.sh --baseline      # also write bench/baseline/<env>.json
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo run --release --offline --quiet -- suite "$@"
cargo run --release --offline --quiet -- check
