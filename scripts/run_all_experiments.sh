#!/usr/bin/env bash
# Regenerates every table and figure via the resumable orchestrator.
# Scale knobs via environment: ST_MEASURE, MP_MEASURE, MIXES, etc.
#
# The campaign journal lives under $CAMPAIGN_DIR (default
# runs/full-campaign): kill this script at any point and rerun it —
# completed jobs are verified against their run manifests and skipped,
# and the aggregated campaign.jsonl comes out byte-identical to an
# uninterrupted pass. Reports still land in results/<name>.txt.
# (No -e: failures propagate explicitly, with context.)
set -uo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

# Defaults sized for a ~45 minute single-core pass; scale up for tighter
# numbers (the paper-scale equivalents are noted in DESIGN.md). THREADS=0
# (the default) uses every available core, which cuts the wall clock
# roughly by the core count on the fan-out-heavy drivers (fig4-fig10,
# table3) — e.g. to ~12-15 minutes on a 4-core machine — with
# bit-identical outputs at any thread count.
THREADS="${THREADS:-0}"
ST_WARMUP="${ST_WARMUP:-2000000}"
ST_MEASURE="${ST_MEASURE:-8000000}"
MP_WARMUP="${MP_WARMUP:-1500000}"
MP_MEASURE="${MP_MEASURE:-5000000}"
MIXES="${MIXES:-24}"
SWEEP_MIXES="${SWEEP_MIXES:-8}"
SWEEP_MEASURE="${SWEEP_MEASURE:-3000000}"
ROC_MEASURE="${ROC_MEASURE:-6000000}"
CANDIDATES="${CANDIDATES:-60}"

BIN=target/release
cargo build --workspace --release || exit 1

# PROCS bounds concurrent driver *processes*; each driver still fans
# out internally over $THREADS, so the default keeps one heavyweight
# driver at a time.
PROCS="${PROCS:-1}"
CAMPAIGN_DIR="${CAMPAIGN_DIR:-runs/full-campaign}"
$BIN/orchestrate run --plan full --dir "$CAMPAIGN_DIR" \
  --procs "$PROCS" --worker-threads "$THREADS" \
  --st-warmup "$ST_WARMUP" --st-measure "$ST_MEASURE" \
  --mp-warmup "$MP_WARMUP" --mp-measure "$MP_MEASURE" \
  --mixes "$MIXES" --sweep-mixes "$SWEEP_MIXES" \
  --sweep-measure "$SWEEP_MEASURE" --roc-measure "$ROC_MEASURE" \
  --candidates "$CANDIDATES" || exit 1
echo "all experiments complete; reports in results/, campaign in $CAMPAIGN_DIR"
