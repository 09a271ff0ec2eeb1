#!/usr/bin/env bash
# Captures a machine-readable performance snapshot (predictor hot path,
# lane kernels, hierarchy throughput, serving fleet, replay speedup) into
# results/bench_snapshot.json.
#
# The std::time-based bench_snapshot binary runs anywhere (CI, offline
# containers) and emits a single JSON document, which
# `manifest_check --bench-gate` checks against the committed baseline and
# which suits artifact upload and cross-PR diffing.
#
# Knobs (environment variables):
#   SAMPLES      repetitions per measurement, median taken   (default 7)
#   ITERS        hot-path iterations per sample              (default 2000000)
#   INSTRUCTIONS instructions per hierarchy sample           (default 200000)
#   OUT          output path                                 (default results/bench_snapshot.json)
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

SAMPLES="${SAMPLES:-7}"
ITERS="${ITERS:-2000000}"
INSTRUCTIONS="${INSTRUCTIONS:-200000}"
OUT="${OUT:-results/bench_snapshot.json}"

cargo build --release -p mrp-experiments --bin bench_snapshot
target/release/bench_snapshot \
  --samples "$SAMPLES" \
  --iters "$ITERS" \
  --instructions "$INSTRUCTIONS" \
  --out "$OUT"
echo "bench snapshot written to $OUT"
