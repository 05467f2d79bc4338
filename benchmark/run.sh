#!/usr/bin/env bash
# Builds the benchmark and runs every workload, untraced and traced, each
# in a process of its own; prints every metric as `workload metric value
# unit` and writes benchmark/out/results-seed<N>.json for compare.py.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick] [--out FILE]
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all "$@"
