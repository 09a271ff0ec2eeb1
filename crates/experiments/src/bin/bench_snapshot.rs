//! Same-process performance gate: four ratios, each between two
//! measurements taken back to back in this process, checked against
//! named floors, plus a JSON snapshot of the rows behind them as a
//! record of the perf trajectory across PRs.
//!
//! Absolute ns/op and instructions/s drift by a quarter run to run on a
//! shared host, so a gate on them measures the machine. A ratio of two
//! measurements taken back to back cancels most of that drift. Every
//! sample runs both sides of each ratio, alternating which goes first,
//! and a gate reads the median of its per-sample ratios:
//!
//! * `mpppb_over_lru` — MPPPB over LRU hierarchy instructions/s on
//!   `loop.edge`, an LLC-heavy member where the predictor does most of
//!   the work, both simulations run in [`LOOP_EDGE_CHUNKS`] alternating
//!   chunks of `--instructions` per sample ([`MPPPB_OVER_LRU_FLOOR`]);
//! * `replay_speedup` — 13 full simulations of `zipf.hot` over one
//!   recording plus 13 replays, recording cost included
//!   ([`REPLAY_SPEEDUP_FLOOR`]);
//! * `lane_speedup` — the Table 1(a) index pass at the scalar level over
//!   the dispatched level ([`LANE_SPEEDUP_FLOOR`]), skipped when the
//!   dispatched level is scalar;
//! * `serve_over_access` — the serving fleet's per-core drain rate over
//!   the bare `MultiperspectivePredictor::access` rate
//!   ([`SERVE_OVER_ACCESS_FLOOR`]), both on [`SERVE_WORKERS`] workers.
//!
//! Each floor depends on the dispatched SIMD level, and a ratio without
//! a floor at that level is reported but not gated. The snapshot is
//! written either way; the process exits non-zero, naming each ratio
//! below its floor. Times come from `std::time`, so it runs anywhere.
//!
//! Usage: `bench_snapshot [--samples N] [--iters N] [--instructions N]
//! [--out PATH] [--metrics] [--manifest-dir DIR]`. `--iters` sets the
//! hot-path loops' length per sample, `--instructions` the simulations'.
//! `--metrics` also writes the rows and gate values as scalars in a
//! JSONL run manifest. Any other flag is an error.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use mrp_cache::{Cache, HierarchyConfig};
use mrp_core::context::FeatureContext;
use mrp_core::feature_sets;
use mrp_core::{FeaturePlan, MultiperspectivePredictor, SimdLevel};
use mrp_cpu::{replay_single, SingleCoreSim};
use mrp_experiments::cli::Args;
use mrp_experiments::runner::record;
use mrp_experiments::{finish_manifest, PolicyKind, RunScale};
use mrp_obs::Json;
use mrp_trace::workloads::{self, Workload};

/// A ratio's floor at each dispatch level, `[scalar, avx2, avx512]`;
/// `None` reports the ratio at that level without gating it. The ratios
/// move with the kernel tier (the SIMD kernels speed MPPPB and the bare
/// predictor up more than LRU or the memory-bound fleet), so each tier
/// has its own floor, set only where it was measured: each sits between
/// ten unplanted default-scale runs and ten with a slowdown planted in
/// the code the ratio guards, on a 2-vCPU AVX-512 Xeon built with
/// default flags, at AVX-512 and at scalar with `MRP_NO_SIMD=1`
/// (EXPERIMENTS.md, "The bench gate", lists the readings). No AVX2-only
/// machine has been measured, so the tier-dependent ratios have no AVX2
/// floor.
type Floors = [Option<f64>; 3];

/// Chunks of `--instructions` each side of `mpppb_over_lru` runs per
/// sample, alternating with the other side chunk by chunk, so a burst of
/// load from the rest of the host lands on both sides of the ratio.
const LOOP_EDGE_CHUNKS: u64 = 10;

/// Fleet workers, and concurrent bare predictors, of `serve_over_access`.
/// Pinned to the width the floors were measured at: a wider fleet
/// contends differently for memory bandwidth and the shared caches.
const SERVE_WORKERS: usize = 2;

/// MPPPB over LRU instructions/s on `loop.edge`; planted: a
/// 100-iteration busy loop atop `Mpppb::predict_and_train`, 200 at the
/// scalar level. The 100-iteration plant costs the slower scalar
/// predictor too small a share to clear the spread of unplanted scalar
/// runs on a loaded host.
const MPPPB_OVER_LRU_FLOOR: Floors = [Some(0.50), None, Some(0.69)];

/// Full simulation over record + replay of a 13-policy sweep, the
/// record/replay design claim, which does not depend on the tier;
/// planted: 100 busy iterations per replayed event.
const REPLAY_SPEEDUP_FLOOR: Floors = [Some(4.0); 3];

/// The index pass at the scalar level over the dispatched level, not
/// measured at the scalar level where both sides run one kernel;
/// planted: a dispatcher that always runs the scalar kernel.
const LANE_SPEEDUP_FLOOR: Floors = [None, None, Some(1.3)];

/// The fleet's per-core drain over the bare predictor access rate per
/// core; planted: 150 busy iterations per access in
/// `PredictionEngine::submit_batch`.
const SERVE_OVER_ACCESS_FLOOR: Floors = [Some(0.48), None, Some(0.32)];

/// The gated ratios in `Measured::samples` order.
const GATES: [(&str, Floors); 4] = [
    ("mpppb_over_lru", MPPPB_OVER_LRU_FLOOR),
    ("replay_speedup", REPLAY_SPEEDUP_FLOOR),
    ("lane_speedup", LANE_SPEEDUP_FLOOR),
    ("serve_over_access", SERVE_OVER_ACCESS_FLOOR),
];

/// Index of `level` in a [`Floors`] row.
fn tier(level: SimdLevel) -> usize {
    match level {
        SimdLevel::Scalar => 0,
        SimdLevel::Avx2 => 1,
        SimdLevel::Avx512 => 2,
    }
}

/// Per-sample `(numerator, denominator)` readings of one ratio.
type Samples = Vec<(f64, f64)>;

/// What the gate reads: the dispatched SIMD level and each ratio's
/// per-sample readings, in [`GATES`] order (empty when not measured).
struct Measured {
    level: SimdLevel,
    samples: [Samples; 4],
}

/// One checked ratio: its per-sample values and their median (`None`
/// when not measured), the floor for the dispatched level (`None` when
/// not gated there), and the verdict (`pass`, `fail` or `skip`).
#[derive(Debug)]
struct Gate {
    name: &'static str,
    floor: Option<f64>,
    ratios: Vec<f64>,
    value: Option<f64>,
    verdict: &'static str,
}

/// A JSON number to three places, or `null`.
fn number(x: Option<f64>) -> String {
    x.map_or("null".to_string(), |x| format!("{x:.3}"))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The median numerator and the median denominator, for reading a gate
/// against.
fn side_medians(samples: &Samples) -> (f64, f64) {
    (
        median(samples.iter().map(|s| s.0).collect()),
        median(samples.iter().map(|s| s.1).collect()),
    )
}

/// The per-sample ratios. No samples, or a sample whose reading is not a
/// finite number or whose denominator is not positive, is an error: a
/// gate that cannot be computed must not pass.
fn ratios(name: &str, samples: &[(f64, f64)]) -> Result<Vec<f64>, String> {
    if samples.is_empty() {
        return Err(format!("{name}: no samples measured"));
    }
    samples
        .iter()
        .map(|&(num, den)| {
            if num.is_finite() && den.is_finite() && den > 0.0 {
                Ok(num / den)
            } else {
                Err(format!("{name}: unusable sample {num} / {den}"))
            }
        })
        .collect()
}

/// Checks every ratio against its floor for the dispatched level. A
/// value exactly at its floor passes; a ratio without a floor at this
/// level is skipped, its value still reported when it was measured.
fn check_gates(m: &Measured) -> Result<Vec<Gate>, String> {
    GATES
        .iter()
        .zip(&m.samples)
        .map(|(&(name, floors), samples)| {
            let floor = floors[tier(m.level)];
            let mut gate = Gate {
                name,
                floor,
                ratios: Vec::new(),
                value: None,
                verdict: "skip",
            };
            if floor.is_some() || !samples.is_empty() {
                gate.ratios = ratios(name, samples)?;
                gate.value = Some(median(gate.ratios.clone()));
            }
            if let (Some(value), Some(floor)) = (gate.value, floor) {
                gate.verdict = if value >= floor { "pass" } else { "fail" };
            }
            Ok(gate)
        })
        .collect()
}

/// Runs `a` and `b` back to back in each of `samples` samples,
/// alternating which goes first, so host drift lands on both sides of a
/// sample's ratio. Returns each sample's `(a, b)` readings.
fn interleaved(samples: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> Samples {
    (0..samples)
        .map(|i| {
            if i % 2 == 0 {
                let x = a();
                (x, b())
            } else {
                let y = b();
                (a(), y)
            }
        })
        .collect()
}

/// Ns/op of `f` run `iters` times.
fn ns_per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn pc_history() -> Vec<u64> {
    (0..18).map(|i| 0x40_0000 + i * 1357).collect()
}

/// One timed run of `iters` Table 1(a) index passes through
/// `compute_offsets_with` at `level`, in ns/op.
fn lane_pass(plan: &FeaturePlan, level: SimdLevel, iters: u64) -> impl FnMut() -> f64 + '_ {
    let history = pc_history();
    let mut out = Vec::with_capacity(16);
    let mut pc = 0x40_0000u64;
    move || {
        ns_per_op(iters, || {
            pc = pc.wrapping_add(4);
            let ctx = FeatureContext {
                pc,
                address: pc << 3,
                pc_history: &history,
                is_mru: pc.is_multiple_of(2),
                is_insert: pc.is_multiple_of(3),
                last_miss: pc.is_multiple_of(5),
            };
            plan.compute_offsets_with(level, &ctx, &mut out);
            std::hint::black_box(out.len());
        })
    }
}

/// Ns/op of `iters` fused `MultiperspectivePredictor::access` calls on
/// a fresh predictor: one offsets pass feeding the confidence gather and
/// sampler training, as the production policies drive it.
fn predictor_access_ns(iters: u64) -> f64 {
    const LLC_SETS: u32 = 2048;
    let mut predictor = MultiperspectivePredictor::new(feature_sets::table_1a(), LLC_SETS, 64, 18);
    let history = pc_history();
    let mut pc = 0x40_0000u64;
    let mut block = 0u64;
    ns_per_op(iters, || {
        pc = pc.wrapping_add(4);
        block = block.wrapping_add(0x61c8_8646_80b5_83eb);
        let ctx = FeatureContext {
            pc,
            address: block << 6,
            pc_history: &history,
            is_mru: pc.is_multiple_of(2),
            is_insert: pc.is_multiple_of(3),
            last_miss: pc.is_multiple_of(5),
        };
        let confidence = predictor.access(&ctx, block as u32 % LLC_SETS, block);
        std::hint::black_box(confidence);
    })
}

/// One `mpppb_over_lru` sample: instructions/s of cold MPPPB and LRU
/// simulations of `workload`, advanced in [`LOOP_EDGE_CHUNKS`] chunks of
/// `chunk` instructions each, the two sides taking turns and alternating
/// which goes first.
fn mpppb_and_lru(workload: &Workload, chunk: u64) -> (f64, f64) {
    let config = HierarchyConfig::single_thread();
    let mut sims = [PolicyKind::MpppbSingle, PolicyKind::Lru]
        .map(|kind| SingleCoreSim::new(config, kind.build(&config.llc), workload.trace(1)));
    let mut secs = [0.0; 2];
    for c in 0..LOOP_EDGE_CHUNKS as usize {
        for side in [c % 2, 1 - c % 2] {
            let start = Instant::now();
            std::hint::black_box(sims[side].run(0, chunk).mpki);
            secs[side] += start.elapsed().as_secs_f64();
        }
    }
    let instructions = (chunk * LOOP_EDGE_CHUNKS) as f64;
    (instructions / secs[0], instructions / secs[1])
}

/// Wall-clock ms of a 13-policy sweep of `workload` as 13 full
/// simulations.
fn full_sweep_ms(workload: &Workload, instructions: u64) -> f64 {
    let config = HierarchyConfig::single_thread();
    let start = Instant::now();
    let mut total = 0.0;
    for kind in PolicyKind::ALL {
        let mut sim = SingleCoreSim::new(config, kind.build(&config.llc), workload.trace(1));
        total += sim.run(instructions / 5, instructions).mpki;
    }
    std::hint::black_box(total);
    start.elapsed().as_secs_f64() * 1e3
}

/// Wall-clock ms of the same sweep as one recording plus 13 replays,
/// the recording cost included as a cold driver pays it. Results are
/// bit-identical to [`full_sweep_ms`]'s, so the ratio is pure speedup.
fn replay_sweep_ms(workload: &Workload, instructions: u64) -> f64 {
    let config = HierarchyConfig::single_thread();
    let start = Instant::now();
    let scale = RunScale::single_thread()
        .warmup(instructions / 5)
        .measure(instructions)
        .seed(1);
    let recording = record(workload, scale);
    let mut total = 0.0;
    for kind in PolicyKind::ALL {
        let mut cache = Cache::new(config.llc, kind.build(&config.llc));
        total += replay_single(&recording, &mut cache, &config.latencies).mpki;
    }
    std::hint::black_box(total);
    start.elapsed().as_secs_f64() * 1e3
}

fn member(name: &str) -> Workload {
    workloads::suite()
        .into_iter()
        .find(|w| w.name() == name)
        .expect("suite member")
}

fn main() -> ExitCode {
    let args = Args::parse_known(&[
        "samples",
        "iters",
        "instructions",
        "out",
        "metrics",
        "manifest-dir",
    ]);
    let samples = args.get_usize("samples", 15).max(1);
    let iters = args.get_u64("iters", 500_000).max(1);
    let instructions = args.get_u64("instructions", 200_000).max(1);
    let out_path = args.get_str("out", "results/bench_snapshot.json");
    let mut manifest = args.init_metrics("bench_snapshot", 0);
    let level = mrp_core::simd::level();
    eprintln!(
        "bench_snapshot: {samples} samples, {iters} hot-path iters, {instructions} instructions, \
         SIMD level {}",
        level.name()
    );

    let loop_edge = member("loop.edge");
    let mpppb_over_lru: Samples = (0..samples)
        .map(|_| mpppb_and_lru(&loop_edge, instructions))
        .collect();

    let zipf_hot = member("zipf.hot");
    let replay_speedup = interleaved(
        samples,
        || full_sweep_ms(&zipf_hot, instructions),
        || replay_sweep_ms(&zipf_hot, instructions),
    );

    let plan = FeaturePlan::new(&feature_sets::table_1a());
    let lane_speedup = if level == SimdLevel::Scalar {
        Vec::new()
    } else {
        interleaved(
            samples,
            lane_pass(&plan, SimdLevel::Scalar, iters),
            lane_pass(&plan, level, iters),
        )
    };

    // The default `mrp-serve` shape: 16 tenants on 4 shards, 64Ki
    // accesses per round, MPPPB engines, confidence tracking on, fanned
    // out over `SERVE_WORKERS` whatever the host offers. Each sample
    // reopens the drain window on the warmed fleet.
    mrp_runtime::set_threads(SERVE_WORKERS);
    let mut fleet = mrp_serve::Fleet::new({
        let mut config = mrp_serve::FleetConfig::new(16, 4, 42);
        config.traffic.round_quota = 64 * 1024;
        config
    });
    fleet.run_rounds(30);
    assert_eq!(fleet.workers(), SERVE_WORKERS);
    let mut serve_wall = Vec::with_capacity(samples);
    let serve_over_access = interleaved(
        samples,
        || {
            fleet.reset_drain_window();
            let start = Instant::now();
            let processed = fleet.run_rounds(50);
            serve_wall.push(processed as f64 / start.elapsed().as_secs_f64());
            fleet.drain_accesses_per_sec()
        },
        // The bare access rate per core, measured on as many concurrent
        // workers as the fleet fans out to, each with its own predictor:
        // work over summed busy time, as the drain rate is defined.
        || {
            let ns = mrp_runtime::map_indexed_with(SERVE_WORKERS, SERVE_WORKERS, |_| {
                predictor_access_ns(iters)
            });
            1e9 * SERVE_WORKERS as f64 / ns.iter().sum::<f64>()
        },
    );

    let (mpppb, lru) = side_medians(&mpppb_over_lru);
    let (full, replay) = side_medians(&replay_speedup);
    let (drain, access) = side_medians(&serve_over_access);
    let mut rows = vec![
        ("mpppb_loop_edge_instructions_per_sec", mpppb),
        ("lru_loop_edge_instructions_per_sec", lru),
        ("full_sim_13_policies_ms", full),
        ("record_and_replay_13_policies_ms", replay),
        ("serve_drain_accesses_per_sec", drain),
        ("serve_wall_accesses_per_sec", median(serve_wall)),
        ("predictor_accesses_per_sec", access),
    ];
    if !lane_speedup.is_empty() {
        let (scalar, dispatched) = side_medians(&lane_speedup);
        rows.push(("lane_scalar_ns_per_op", scalar));
        rows.push(("lane_dispatched_ns_per_op", dispatched));
    }
    let measured = Measured {
        level,
        samples: [
            mpppb_over_lru,
            replay_speedup,
            lane_speedup,
            serve_over_access,
        ],
    };
    let gates = match check_gates(&measured) {
        Ok(gates) => gates,
        Err(e) => {
            eprintln!("bench_snapshot: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"mrp-bench-snapshot-v2\",");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"hot_path_iters\": {iters},");
    let _ = writeln!(json, "  \"hierarchy_instructions\": {instructions},");
    let _ = writeln!(json, "  \"simd_level\": \"{}\",", level.name());
    let _ = writeln!(json, "  \"rows\": {{");
    for (i, (name, value)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{name}\": {value:.3}{comma}");
        eprintln!("  {name}: {value:.3}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"gates\": {{");
    for (i, gate) in gates.iter().enumerate() {
        let comma = if i + 1 < gates.len() { "," } else { "" };
        let (value, floor) = (number(gate.value), number(gate.floor));
        let ratios: Vec<String> = gate.ratios.iter().map(|r| format!("{r:.3}")).collect();
        let _ = writeln!(
            json,
            "    \"{}\": {{ \"value\": {value}, \"floor\": {floor}, \"verdict\": \"{}\", \
             \"samples\": [{}] }}{comma}",
            gate.name,
            gate.verdict,
            ratios.join(", ")
        );
        eprintln!(
            "  gate {}: {value} (floor {floor}) {}",
            gate.name, gate.verdict
        );
    }
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("{json}");
    eprintln!("snapshot written to {out_path}");

    if let Some(m) = manifest.as_mut() {
        m.meta("samples", Json::U64(samples as u64));
        m.meta("hot_path_iters", Json::U64(iters));
        m.meta("hierarchy_instructions", Json::U64(instructions));
        for (name, value) in &rows {
            m.scalar(&format!("rows.{name}"), *value);
        }
        for gate in &gates {
            if let Some(value) = gate.value {
                m.scalar(&format!("gates.{}", gate.name), value);
            }
        }
    }
    finish_manifest(manifest);

    let mut failed = false;
    for gate in gates.iter().filter(|g| g.verdict == "fail") {
        eprintln!(
            "bench_snapshot: {} {} fell below its {} floor",
            gate.name,
            number(gate.value),
            number(gate.floor)
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

    /// The four ratios read `values`, two samples each, at `level`; the
    /// lane ratio is unmeasured at the scalar level, as in `main`.
    fn measured(level: SimdLevel, values: [f64; 4]) -> Measured {
        let mut samples = values.map(|v| vec![(v * 2.0, 2.0), (v * 3.0, 3.0)]);
        if level == SimdLevel::Scalar {
            samples[2].clear();
        }
        Measured { level, samples }
    }

    /// Each ratio's floor at `level` (1.0 where it has none).
    fn floors(level: SimdLevel) -> [f64; 4] {
        GATES.map(|(_, floors)| floors[tier(level)].unwrap_or(1.0))
    }

    fn verdicts(gates: &[Gate]) -> Vec<&str> {
        gates.iter().map(|g| g.verdict).collect()
    }

    #[test]
    fn ratio_exactly_at_its_floor_passes() {
        for level in LEVELS {
            let gates = check_gates(&measured(level, floors(level))).unwrap();
            let gated = GATES.map(|(_, floors)| floors[tier(level)].map_or("skip", |_| "pass"));
            assert_eq!(verdicts(&gates), gated, "{gates:?}");
        }
    }

    #[test]
    fn ratio_below_its_floor_fails_and_names_the_ratio() {
        for level in LEVELS {
            for slow in 0..4 {
                let mut values = floors(level);
                values[slow] *= 0.9;
                let gates = check_gates(&measured(level, values)).unwrap();
                let failed: Vec<&str> = gates
                    .iter()
                    .filter(|g| g.verdict == "fail")
                    .map(|g| g.name)
                    .collect();
                let gated = GATES[slow].1[tier(level)].is_some();
                let expected: &[&str] = if gated { &[GATES[slow].0] } else { &[] };
                assert_eq!(failed, expected, "{gates:?}");
            }
        }
    }

    #[test]
    fn gate_reads_the_median_of_per_sample_ratios() {
        let mut m = measured(SimdLevel::Avx512, floors(SimdLevel::Avx512));
        // Per-sample ratios 3.0, 0.1 and 0.6: the median is 0.6, while
        // the ratio of the side medians would read 3.0 / 1.0.
        m.samples[0] = vec![(3.0, 1.0), (0.1, 1.0), (3.0, 5.0)];
        let gates = check_gates(&m).unwrap();
        assert_eq!(gates[0].value, Some(0.6));
    }

    #[test]
    fn ratios_without_a_floor_are_skipped() {
        // Scalar: the lane ratio is unmeasured and skipped; the others
        // still fail below their floors. AVX2 has no measured floor for
        // the tier-dependent ratios: they are reported, not gated.
        let gates = check_gates(&measured(SimdLevel::Scalar, [0.25; 4])).unwrap();
        assert_eq!(verdicts(&gates), ["fail", "fail", "skip", "fail"]);
        assert_eq!((gates[2].value, gates[2].floor), (None, None));
        let gates = check_gates(&measured(SimdLevel::Avx2, [0.25; 4])).unwrap();
        assert_eq!(verdicts(&gates), ["skip", "fail", "skip", "skip"]);
        assert!(gates.iter().all(|g| g.value == Some(0.25)), "{gates:?}");
        let gates = check_gates(&measured(SimdLevel::Avx512, [0.25; 4])).unwrap();
        assert_eq!(verdicts(&gates), ["fail"; 4]);
    }

    #[test]
    fn missing_nan_or_zero_denominator_is_an_error_not_a_pass() {
        let unusable: [Samples; 4] = [
            Vec::new(),
            vec![(1.0, f64::NAN)],
            vec![(1.0, 0.0)],
            vec![(f64::NAN, 1.0)],
        ];
        for samples in unusable {
            for (i, (name, _)) in GATES.iter().enumerate() {
                // Every other ratio passes with room to spare.
                let mut m = measured(
                    SimdLevel::Avx512,
                    floors(SimdLevel::Avx512).map(|f| f * 2.0),
                );
                m.samples[i] = samples.clone();
                let err = check_gates(&m).expect_err("unusable samples must not pass");
                assert!(err.starts_with(name), "{err}");
            }
        }
    }
}
