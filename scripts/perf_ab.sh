#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark (perfbench) between two git
# revisions.
#
# Usage:
#   scripts/perf_ab.sh PARENT CHANGE [WORKLOAD] [PAIRS] [SECONDS] [FIRST_SEED]
#
#   PARENT, CHANGE  any git revisions (commit, tag, branch)
#   WORKLOAD        sim_llc | sim_core | replay_sweep | serve_fleet
#                   (default serve_fleet)
#   PAIRS           pairs of runs (default 10)
#   SECONDS         perfbench --seconds per run (default 20)
#   FIRST_SEED      seed of the first pair; pair i runs seed
#                   FIRST_SEED + i - 1 on both sides (default 1)
#
# Each revision is exported with `git archive` into its own directory under
# target/perf_ab/ and built there with its own CARGO_TARGET_DIR, so the two
# builds share no source and no artifacts. Both sides of a pair run the same
# seed, and pairs alternate which side runs first, so slow drift of the host
# falls on both sides alike.
#
# Per end-to-end metric it prints each side's median and quartiles, the
# median of the per-pair CHANGE/PARENT ratios with their min and max, and how
# many pairs CHANGE won (in the metric's "better" direction from
# BENCHMARK.json; ties count for neither side).
#
# After the table it prints one verdict line per metric, the rule a gain
# claim and a no-regression claim are judged by:
#   gain met | gain not met: met when CHANGE wins at least 9/10 of the pairs
#     and the medians differ in the better direction by more than PARENT's
#     Q3 - Q1;
#   no regression | worse beyond bound | unresolved: worse beyond bound when
#     CHANGE's median is worse than PARENT's by more than the metric's
#     BENCHMARK.json bound (a fraction of PARENT's median); otherwise
#     unresolved when PARENT's own Q3 - Q1 exceeds that bound and not every
#     CHANGE run beats every PARENT run.
#
# Exits non-zero if a run fails, if a run reports `failed > 0`, or if any of
# the four simulated metrics (ipc_geomean, mpki_mean, mpppb_speedup_geomean,
# llc_hit_rate) differs between the two sides of a pair.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 6 ]]; then
  sed -n '4,14p' "$0" >&2
  exit 2
fi
PARENT="$1"
CHANGE="$2"
WORKLOAD="${3:-serve_fleet}"
PAIRS="${4:-10}"
SECONDS_PER_RUN="${5:-20}"
FIRST_SEED="${6:-1}"

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$ROOT/target/perf_ab"
mkdir -p "$WORK"

# Exports revision $1 and builds its benchmark; prints the binary's path.
build() {
  local sha dir
  sha="$(git -C "$ROOT" rev-parse --verify "$1^{commit}")"
  dir="$WORK/$sha"
  if [[ ! -f "$dir/.exported" ]]; then
    rm -rf "$dir"
    mkdir -p "$dir/src"
    git -C "$ROOT" archive "$sha" | tar -x -C "$dir/src"
    touch "$dir/.exported"
  fi
  CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
    --manifest-path "$dir/src/perfbench/Cargo.toml" >&2
  echo "$dir/target/release/perfbench"
}

echo "building $PARENT" >&2
PARENT_BIN="$(build "$PARENT")"
echo "building $CHANGE" >&2
CHANGE_BIN="$(build "$CHANGE")"

RESULTS="$WORK/$WORKLOAD-$(date +%Y%m%d-%H%M%S).tsv"
: >"$RESULTS"

# Runs side $1 (parent|change) with binary $2 on seed $3 and appends
# "side<TAB>seed<TAB>result JSON" to the results file.
run() {
  local out
  out="$("$2" --workload "$WORKLOAD" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0)"
  printf '%s\t%s\t%s\n' "$1" "$3" "$(tail -n 1 <<<"$out")" >>"$RESULTS"
  echo "  $1 seed $3: $(tail -n 1 <<<"$out" | cut -c1-80)..." >&2
}

for ((i = 0; i < PAIRS; i++)); do
  seed=$((FIRST_SEED + i))
  echo "pair $((i + 1))/$PAIRS (seed $seed)" >&2
  if ((i % 2 == 0)); then
    run parent "$PARENT_BIN" "$seed"
    run change "$CHANGE_BIN" "$seed"
  else
    run change "$CHANGE_BIN" "$seed"
    run parent "$PARENT_BIN" "$seed"
  fi
done

echo "raw results: $RESULTS" >&2
python3 - "$RESULTS" "$ROOT/BENCHMARK.json" "$WORKLOAD" <<'PY'
import json
import statistics
import sys

results, benchmark, workload = sys.argv[1:]
SIMULATED = ["ipc_geomean", "mpki_mean", "mpppb_speedup_geomean", "llc_hit_rate"]

runs = {"parent": {}, "change": {}}
ok = True
with open(results) as f:
    for line in f:
        side, seed, body = line.rstrip("\n").split("\t", 2)
        result = json.loads(body)
        if result["failed"] > 0 or not result["correct"]:
            print(f"FAIL: {side} seed {seed} reports failed={result['failed']}")
            ok = False
        runs[side][int(seed)] = {k: v["value"] for k, v in result["metrics"].items()}

seeds = sorted(set(runs["parent"]) & set(runs["change"]))
metrics = json.load(open(benchmark))["end_to_end"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


print(f"workload {workload}, {len(seeds)} pairs, seeds {seeds[0]}..{seeds[-1]}")
print(f"{'metric':<22} {'parent median [Q1, Q3]':<30} {'change median [Q1, Q3]':<30} "
      f"{'ratio median (min..max)':<27} wins")
for metric in metrics:
    name, higher = metric["name"], metric["better"] == "higher"
    a = [runs["parent"][s][name] for s in seeds]
    b = [runs["change"][s][name] for s in seeds]
    ratios = [y / x if x else float("nan") for x, y in zip(a, b)]
    wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    print(f"{name:<22} {f'{a2:.4g} [{a1:.4g}, {a3:.4g}]':<30} "
          f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':<30} "
          f"{f'{statistics.median(ratios):.4f} ({min(ratios):.4f}..{max(ratios):.4f})':<27} "
          f"{wins}/{len(seeds)}")
    if name in SIMULATED:
        for s, x, y in zip(seeds, a, b):
            if x != y:
                print(f"FAIL: {name} differs on seed {s}: parent {x!r}, change {y!r}")
                ok = False


def verdicts(a, b, higher, bound):
    (a1, a2, a3), (_, b2, _) = quartiles(a), quartiles(b)
    sign = 1 if higher else -1
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    met = 10 * wins >= 9 * len(a) and sign * (b2 - a2) > a3 - a1
    gain = "gain met" if met else "gain not met"
    if sign * (b2 - a2) < -bound * abs(a2):
        regression = "worse beyond bound"
    elif a3 - a1 > bound * abs(a2) and not all(sign * (y - x) > 0 for x in a for y in b):
        regression = "unresolved"
    else:
        regression = "no regression"
    return gain, regression


print("verdicts (gain: >= 9/10 wins and median gain > parent Q3-Q1; "
      "regression: BENCHMARK.json bound)")
for metric in metrics:
    name = metric["name"]
    a = [runs["parent"][s][name] for s in seeds]
    b = [runs["change"][s][name] for s in seeds]
    gain, regression = verdicts(a, b, metric["better"] == "higher", metric["bound"])
    print(f"{name:<22} {gain:<14} {regression} (bound {metric['bound']})")
sys.exit(0 if ok else 1)
PY
