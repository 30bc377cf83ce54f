#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   benchmark/run.sh [--seed N]            every workload, end-to-end metrics
#   benchmark/run.sh --traced [--seed N]   ... plus the per-layer run of each
#   benchmark/run.sh --check               1 s windows, all checks, schema
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; last line is the result
#
# Runs from the repository root whatever the caller's directory, so the
# root .cargo/config.toml (target-cpu=native, as the product ships) and
# BENCHMARK.json are found, and a relative CARGO_TARGET_DIR means what
# the caller meant only when the caller is already there.
set -euo pipefail
cd "$(dirname "$0")/.."

# Cargo's progress goes to stderr; stdout carries only the report.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/gcnn-benchmark" "$@"
