#!/usr/bin/env bash
# A/A check: the full benchmark twice on the same code, compared with
# the bounds BENCHMARK.json fixes. Exits non-zero on a breach.
#
#   benchmark/aa.sh                 2 seeds per set (a few minutes)
#   benchmark/aa.sh --seeds 10      also prints quartile spreads
#
# The committed benchmark/results/aa.txt is this script's output.
set -euo pipefail
exec "$(dirname "$0")/run.sh" --aa "$@"
