#!/usr/bin/env bash
# Microbenchmark runner: builds the bench binaries in release mode and
# runs all three benchmarks (alloc, fleet, routes) in full mode from
# the repo root, so the BENCH_*.json artifacts land next to each other.
#
# Usage: scripts/bench.sh [--quick]
#
#   --quick   shrink sizes (the CI smoke gate uses this mode)
#
# Each benchmark asserts its own headline gates (alloc: repeated-read
# speedup >= 5x, churn speedup >= 5x with < 1 component solve per
# mutation; fleet: 10k-job monolith >= 0.5x the 1k-job tick rate; routes: outage re-route
# gain > 1x), so a perf regression makes this script fail.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release -p xferopt-bench"
cargo build --release -p xferopt-bench

echo "==> alloc benchmark (cached vs uncached max-min solves + mutation churn)"
./target/release/alloc "$@"

echo "==> fleet benchmark (admission vs queue depth, sharded scaling)"
./target/release/fleet "$@"

echo "==> routes benchmark (planet route search + outage re-route)"
./target/release/routes "$@"

echo "==> headline numbers"
grep -E '"(repeated_read_100_flow_speedup|solves_per_tick|churn_speedup_1000x64|churn_solves_per_mutation_1000x64)"' BENCH_alloc.json
grep -E '"monolith_10k_vs_1k"' BENCH_fleet.json
grep -E '"outage_reroute_gain"' BENCH_routes.json
