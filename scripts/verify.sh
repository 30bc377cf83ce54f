#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lint-clean clippy,
# canonical formatting, the audit, forced-scalar and width-1 passes,
# smokes and the benchmark's check run.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
# The pool's width is the cores the OS offers and nothing else (no
# environment variable), so one core is how width 1 is exercised: the
# pool itself and the three crates whose kernels open its regions —
# gcnn-fft's suite includes `conv_allocs`, the heap count of each warmed-up
# `FftConv` pass (its output tensor only), here with both of its pool
# widths on one core — and gcnn-models, so the training walker's tests
# run at width 1 too.
if command -v taskset >/dev/null; then
  taskset -c 0 cargo test -q -p rayon -p gcnn-fft -p gcnn-gemm -p gcnn-conv -p gcnn-models
else
  echo "verify: SKIPPED the width-1 pass (taskset not found): the pool ran at the default width only" >&2
fi
# The pool's stress loop and forced-interleaving tests again in release:
# optimised code is what reorders around the job hand-off — and around
# the lane passes' shared output, so the oracle test's width loops (and
# its tolerance against the plane-major engine) too.
cargo test -q --release -p rayon
cargo test -q --release -p gcnn-fft lane_passes_match_plane_major
cargo test -q --release -p gcnn-fft --test preconditions pool_serves
# Under miri where it is installed (the oracle test's one trimmed case, at
# widths 1 and 2: both participants write through one shared output in a
# row pass and in the fused column stage): aliasing of the shared output's
# runs is what no test result shows.
if cargo miri --version >/dev/null 2>&1; then
  cargo miri test -p gcnn-fft --lib lane_passes_match_plane_major
else
  echo "verify: SKIPPED the miri pass over the lane transforms (cargo-miri not installed)" >&2
fi
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check
# Soundness audit: call-graph lints (transitive arena, lock discipline,
# panic freedom, config staleness), the reachability lint (every library
# fn reached from a bin, an example or benchmark/src, or on the audit's
# allow-list: `unreachable` / `test-only`) plus the per-file SAFETY/
# containment/trace-naming passes (see crates/audit).
cargo run -q -p gcnn-audit
# Gate coverage: every benchmark suite that lands in results/ must have
# a bench_compare gate flag wired in CI — a suite without a gate can
# regress silently while still looking "benchmarked".
for f in results/BENCH_*.json; do
  name="$(basename "$f" .json)"
  name="${name#BENCH_}"
  case "$name" in
    hotpaths) flag="--baseline" ;;
    *) flag="--$name" ;;
  esac
  if ! grep -q -- "$flag " .github/workflows/ci.yml; then
    echo "verify: $f has no bench_compare gate ($flag) wired in .github/workflows/ci.yml" >&2
    exit 1
  fi
done
# Forced-scalar pass over the kernel stack: the slice primitives',
# lane kernels' and CGEMM's scalar bodies are the only scalar tier
# (there is no second engine behind them), and CI's force-scalar job
# cannot run here.
GCNN_FORCE_SCALAR=1 cargo test -q -p gcnn-tensor -p gcnn-fft -p gcnn-gemm -p gcnn-conv
# The NEON instantiations of the generic bodies are only ever compiled
# for aarch64: type-check them where the target is installed (CI's
# aarch64-check job installs it; this host has no network to). Empty
# RUSTFLAGS, because the workspace's target-cpu=native would name the
# x86 host's CPU to another architecture.
if rustup target list --installed 2>/dev/null | grep -qx aarch64-unknown-linux-gnu; then
  RUSTFLAGS="" cargo check --target aarch64-unknown-linux-gnu \
    -p gcnn-tensor -p gcnn-fft -p gcnn-gemm
else
  echo "verify: SKIPPED aarch64 check (target not installed)"
fi
# Serving smoke: loopback server under concurrent load must answer
# every request correctly and demonstrably coalesce multi-request
# batches (non-zero exit otherwise).
GCNN_SERVE_MS=150 \
  cargo run -q --release -p gcnn-bench --bin serve_bench -- --smoke
# The repo benchmark is its own cargo workspace, so nothing above links
# it: build it against the crates and run every workload for 1 s with
# all output checks on (its walker compares bit for bit with
# `Network::infer_ws` / `train_batch_ws`).
benchmark/run.sh --check
echo "verify: OK"
