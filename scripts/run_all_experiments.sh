#!/usr/bin/env bash
# Regenerates every table and figure: builds once, then runs the eight
# driver binaries one after another. Each driver's stdout (its report)
# lands in results/<name>.txt and its run manifest under runs/; stderr
# stays on the terminal. After each driver the script prints one
# `<name> <wall s> <peak MB>` line, the peak being the `peak_rss_bytes`
# of the manifest the driver just wrote. The script stops at the first
# driver that fails and names it.
#
# Scale knobs via environment: ST_WARMUP, ST_MEASURE, MP_WARMUP,
# MP_MEASURE, MIXES, SWEEP_MIXES, SWEEP_MEASURE, ROC_MEASURE,
# CANDIDATES. The defaults take about 5.5 minutes on a 2-vCPU host;
# scale up for tighter numbers (the paper-scale equivalents are noted in
# DESIGN.md). THREADS=0 (the default) lets every driver fan out over
# all cores, with bit-identical outputs at any thread count.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

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
cargo build --workspace --release

# run NAME BINARY ARGS...: the report is written to a temporary file and
# renamed only on success, so a failed driver never leaves a partial
# results/NAME.txt behind.
run() {
  local name="$1" bin="$2"
  shift 2
  echo "=== $name: $bin $* ==="
  local start manifest peak
  start=$(date +%s.%N)
  if ! "$BIN/$bin" "$@" --threads "$THREADS" --metrics > "results/$name.txt.tmp"; then
    echo "run_all_experiments: $name ($bin) failed" >&2
    exit 1
  fi
  mv "results/$name.txt.tmp" "results/$name.txt"
  # sed reads all of ls's output, so ls never meets a closed pipe under
  # pipefail however many manifests runs/ holds.
  manifest=$(ls -t runs/"$bin"-*.jsonl | sed -n 1p)
  peak=$(head -n 1 "$manifest" | grep -o '"peak_rss_bytes":[0-9]*' | cut -d: -f2 || true)
  awk -v name="$name" -v start="$start" -v end="$(date +%s.%N)" -v peak="${peak:-0}" \
    'BEGIN { printf "%s %.1f s %.1f MB\n", name, end - start, peak / 1e6 }'
}

run fig_roc     fig_roc         --warmup 2000000 --measure "$ROC_MEASURE" --workloads 33
run fig6        fig6_st_speedup --warmup "$ST_WARMUP" --measure "$ST_MEASURE" --workloads 33
run fig4        fig4_mp_speedup --warmup "$MP_WARMUP" --measure "$MP_MEASURE" --mixes "$MIXES"
run fig3_search fig3_search     --candidates "$CANDIDATES" --workloads 10 --instructions 2000000
run fig9        fig9_assoc      --mixes "$SWEEP_MIXES" --warmup 1000000 --measure "$SWEEP_MEASURE" --step 2
run fig10       fig10_ablation  --mixes "$SWEEP_MIXES" --warmup 1000000 --measure "$SWEEP_MEASURE"
run tables      tables_features
run table3      table3_contrib  --workloads 33 --instructions 2000000
echo "all experiments complete; reports in results/, run manifests in runs/"
