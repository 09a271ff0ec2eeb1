//! Machine-readable performance snapshot of the predictor hot path, the
//! lane kernels, hierarchy throughput, the serving fleet and the replay
//! speedup: the input of `manifest_check --bench-gate`, and a record of
//! the perf trajectory across PRs.
//!
//! Measures with `std::time` directly, so it runs in any environment
//! (CI artifact upload, offline containers), and emits one JSON
//! document.
//!
//! Usage: `bench_snapshot [--samples N] [--iters N] [--instructions N]
//! [--out PATH] [--metrics] [--manifest-dir DIR]` — medians are taken
//! across `--samples` repetitions. `--metrics` additionally writes the
//! same numbers as scalars in a JSONL run manifest.

use std::fmt::Write as _;
use std::time::Instant;

use mrp_cache::replay::LlcRecording;
use mrp_cache::{Cache, HierarchyConfig, ReplacementPolicy};
use mrp_core::context::FeatureContext;
use mrp_core::feature_sets;
use mrp_core::{FeaturePlan, MultiperspectivePredictor};
use mrp_cpu::{replay_single, SingleCoreSim};
use mrp_experiments::cli::Args;
use mrp_experiments::{finish_manifest, PolicyKind};
use mrp_obs::Json;
use mrp_trace::workloads;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    xs[xs.len() / 2]
}

/// Median ns/op of `f` run `iters` times, across `samples` repetitions.
fn median_ns_per_op<F: FnMut()>(samples: usize, iters: u64, mut f: F) -> f64 {
    let mut per_sample = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_sample.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(per_sample)
}

fn bench_index_16_features(samples: usize, iters: u64) -> f64 {
    let plan = FeaturePlan::new(&feature_sets::table_1a());
    let history: Vec<u64> = (0..18).map(|i| 0x40_0000 + i * 1357).collect();
    let mut out = Vec::with_capacity(16);
    let mut pc = 0x40_0000u64;
    median_ns_per_op(samples, iters, || {
        pc = pc.wrapping_add(4);
        let ctx = FeatureContext {
            pc,
            address: pc << 3,
            pc_history: &history,
            is_mru: pc.is_multiple_of(2),
            is_insert: pc.is_multiple_of(3),
            last_miss: pc.is_multiple_of(5),
        };
        plan.compute_offsets(&ctx, &mut out);
        std::hint::black_box(out.len());
    })
}

/// Ns/op of one index pass through `compute_offsets_with` at `level`.
fn bench_lane_level(level: mrp_core::SimdLevel, samples: usize, iters: u64) -> f64 {
    let plan = FeaturePlan::new(&feature_sets::table_1a());
    let history: Vec<u64> = (0..18).map(|i| 0x40_0000 + i * 1357).collect();
    let mut out = Vec::with_capacity(16);
    let mut pc = 0x40_0000u64;
    median_ns_per_op(samples, iters, || {
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

fn bench_confidence_and_train(samples: usize, iters: u64) -> f64 {
    const LLC_SETS: u32 = 2048;
    let mut predictor = MultiperspectivePredictor::new(feature_sets::table_1a(), LLC_SETS, 64, 18);
    let history: Vec<u64> = (0..18).map(|i| 0x40_0000 + i * 1357).collect();
    let mut pc = 0x40_0000u64;
    let mut block = 0u64;
    // The fused per-access entry point: one offsets pass feeding both the
    // confidence gather and sampler training, as the production policies
    // drive it.
    median_ns_per_op(samples, iters, || {
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

/// Serving-fleet throughput: the default `mrp-serve` shape (16 tenants
/// on 4 shards, 64Ki accesses/round, MPPPB engines, confidence tracking
/// on). One fleet is built and warmed, then each sample reopens the
/// drain window and measures `rounds` steady-state rounds. Returns
/// `(drain, wall)` accesses/sec, taking the *best* drain sample: on a
/// shared single-core host, timing noise is one-sided (interference only
/// slows the measured thread), so the max is the least-biased estimate
/// of the sustained service rate. The wall rate — which also bills the
/// in-process simulated clients' traffic generation — is reported
/// unselected, for context.
fn bench_serve_fleet(samples: usize) -> (f64, f64) {
    use mrp_serve::{Fleet, FleetConfig};
    const WARMUP_ROUNDS: u64 = 30;
    const ROUNDS_PER_SAMPLE: u64 = 50;
    let mut config = FleetConfig::new(16, 4, 42);
    config.traffic.round_quota = 64 * 1024;
    let mut fleet = Fleet::new(config);
    fleet.run_rounds(WARMUP_ROUNDS);
    let mut best_drain = 0.0f64;
    for _ in 0..samples {
        fleet.reset_drain_window();
        fleet.run_rounds(ROUNDS_PER_SAMPLE);
        best_drain = best_drain.max(fleet.drain_accesses_per_sec());
    }
    (best_drain, fleet.wall_accesses_per_sec())
}

/// Median instructions/second simulating `instructions` under `kind`.
fn bench_hierarchy(kind: PolicyKind, samples: usize, instructions: u64) -> f64 {
    let mut per_sample = Vec::with_capacity(samples);
    for _ in 0..samples {
        let config = HierarchyConfig::single_thread();
        let mut sim = SingleCoreSim::new(
            config,
            kind.build(&config.llc),
            workloads::suite()[10].trace(1),
        );
        let start = Instant::now();
        std::hint::black_box(sim.run(0, instructions).mpki);
        per_sample.push(instructions as f64 / start.elapsed().as_secs_f64());
    }
    median(per_sample)
}

/// Fresh instances of all 13 registered policies (CLI names + Hawkeye).
fn all_policies(config: &HierarchyConfig) -> Vec<Box<dyn ReplacementPolicy + Send>> {
    let names = [
        "lru",
        "random",
        "plru",
        "srrip",
        "drrip",
        "mdpp",
        "ship",
        "sdbp",
        "perceptron",
        "mpppb",
        "mpppb-srrip",
        "mpppb-adaptive",
    ];
    let mut out: Vec<Box<dyn ReplacementPolicy + Send>> = names
        .iter()
        .map(|n| {
            PolicyKind::from_name(n)
                .expect("known policy")
                .build(&config.llc)
        })
        .collect();
    out.push(PolicyKind::hawkeye(&config.llc));
    out
}

/// Median wall-clock (ms) of a 13-policy single-workload sweep, both
/// ways: full simulation per policy vs record-once + replay-13 (the
/// recording cost is included in the replay time, as a cold driver pays
/// it). Returns `(full_ms, replay_ms)`; results are bit-identical, so
/// the ratio is pure speedup.
fn bench_replay_speedup(samples: usize, instructions: u64) -> (f64, f64) {
    let config = HierarchyConfig::single_thread();
    let workload = &workloads::suite()[10];
    let warmup = instructions / 5;
    let mut full_ms = Vec::with_capacity(samples);
    let mut replay_ms = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let mut total = 0.0;
        for policy in all_policies(&config) {
            let mut sim = SingleCoreSim::new(config, policy, workload.trace(1));
            total += sim.run(warmup, instructions).mpki;
        }
        std::hint::black_box(total);
        full_ms.push(start.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let recording = LlcRecording::record(
            workload.name(),
            workload.trace(1),
            &config,
            warmup,
            instructions,
        );
        let mut total = 0.0;
        for policy in all_policies(&config) {
            let mut cache = Cache::new(config.llc, policy);
            total += replay_single(&recording, &mut cache, &config.latencies).mpki;
        }
        std::hint::black_box(total);
        replay_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (median(full_ms), median(replay_ms))
}

fn main() {
    let args = Args::parse();
    let samples = args.get_usize("samples", 7).max(1);
    let iters = args.get_u64("iters", 2_000_000).max(1);
    let instructions = args.get_u64("instructions", 200_000).max(1);
    let out_path = args.get_str("out", "results/bench_snapshot.json");
    let mut manifest = args.init_metrics("bench_snapshot", 0);
    if let Some(m) = manifest.as_mut() {
        m.meta("samples", Json::U64(samples as u64));
        m.meta("hot_path_iters", Json::U64(iters));
        m.meta("hierarchy_instructions", Json::U64(instructions));
    }

    eprintln!("bench_snapshot: {samples} samples, {iters} hot-path iters/sample");

    let index_ns = bench_index_16_features(samples, iters);
    eprintln!("  predictor_hot_path/index_16_features: {index_ns:.1} ns/op");
    let train_ns = bench_confidence_and_train(samples, iters);
    eprintln!("  predictor_hot_path/confidence_and_train: {train_ns:.1} ns/op");

    // Batched hot path: the scalar-vs-SIMD lane kernel pair. The
    // dispatched level is whatever `simd::level()` detected (subject to
    // MRP_NO_SIMD), recorded so snapshots from different machines or CI
    // legs are comparable.
    let detected = mrp_core::simd::level();
    let lane_scalar_ns = bench_lane_level(mrp_core::SimdLevel::Scalar, samples, iters);
    eprintln!("  batched_hot_path/lane_scalar: {lane_scalar_ns:.1} ns/op");
    let lane_simd_ns = if detected == mrp_core::SimdLevel::Scalar {
        lane_scalar_ns
    } else {
        bench_lane_level(detected, samples, iters)
    };
    eprintln!(
        "  batched_hot_path/lane_{}: {lane_simd_ns:.1} ns/op",
        detected.name()
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"mrp-bench-snapshot-v1\",");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"hot_path_iters\": {iters},");
    let _ = writeln!(json, "  \"hierarchy_instructions\": {instructions},");
    let _ = writeln!(json, "  \"predictor_hot_path\": {{");
    let _ = writeln!(
        json,
        "    \"index_16_features\": {{ \"median_ns_per_op\": {index_ns:.3} }},"
    );
    let _ = writeln!(
        json,
        "    \"confidence_and_train\": {{ \"median_ns_per_op\": {train_ns:.3} }}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"batched_hot_path\": {{");
    let _ = writeln!(json, "    \"simd_level\": \"{}\",", detected.name());
    let _ = writeln!(
        json,
        "    \"lane_scalar\": {{ \"median_ns_per_op\": {lane_scalar_ns:.3} }},"
    );
    let _ = writeln!(
        json,
        "    \"lane_dispatched\": {{ \"median_ns_per_op\": {lane_simd_ns:.3} }}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"hierarchy_throughput\": {{");
    let kinds = [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::MpppbSingle];
    for (i, kind) in kinds.iter().enumerate() {
        let ips = bench_hierarchy(*kind, samples, instructions);
        eprintln!(
            "  hierarchy_throughput/{}: {ips:.0} instructions/sec",
            kind.name()
        );
        let comma = if i + 1 < kinds.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{}\": {{ \"instructions_per_sec\": {ips:.1} }}{comma}",
            kind.name()
        );
        if let Some(m) = manifest.as_mut() {
            m.scalar(
                &format!("hierarchy_throughput.{}.instructions_per_sec", kind.name()),
                ips,
            );
        }
    }
    let _ = writeln!(json, "  }},");

    let (serve_drain, serve_wall) = bench_serve_fleet(samples.min(3));
    eprintln!(
        "  serve_fleet: {:.1}M accesses/sec per-core drain ({:.1}M/s wall incl. traffic gen)",
        serve_drain / 1e6,
        serve_wall / 1e6
    );
    let _ = writeln!(json, "  \"serve_fleet\": {{");
    let _ = writeln!(json, "    \"tenants\": 16,");
    let _ = writeln!(json, "    \"shards\": 4,");
    let _ = writeln!(json, "    \"round_quota\": 65536,");
    let _ = writeln!(json, "    \"drain_accesses_per_sec\": {serve_drain:.1},");
    let _ = writeln!(json, "    \"wall_accesses_per_sec\": {serve_wall:.1}");
    let _ = writeln!(json, "  }},");

    let (full_ms, replay_ms) = bench_replay_speedup(samples, instructions);
    let ratio = full_ms / replay_ms;
    eprintln!(
        "  replay_speedup/full_sim_13_policies: {full_ms:.1} ms, \
         record_and_replay_13_policies: {replay_ms:.1} ms ({ratio:.2}x)"
    );
    let _ = writeln!(json, "  \"replay_speedup\": {{");
    let _ = writeln!(
        json,
        "    \"full_sim_13_policies\": {{ \"median_ms\": {full_ms:.3} }},"
    );
    let _ = writeln!(
        json,
        "    \"record_and_replay_13_policies\": {{ \"median_ms\": {replay_ms:.3} }},"
    );
    let _ = writeln!(json, "    \"speedup\": {ratio:.3}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("{json}");
    eprintln!("snapshot written to {out_path}");

    if let Some(m) = manifest.as_mut() {
        m.scalar(
            "predictor_hot_path.index_16_features.median_ns_per_op",
            index_ns,
        );
        m.scalar(
            "predictor_hot_path.confidence_and_train.median_ns_per_op",
            train_ns,
        );
        m.meta("simd_level", Json::Str(detected.name().to_string()));
        m.scalar(
            "batched_hot_path.lane_scalar.median_ns_per_op",
            lane_scalar_ns,
        );
        m.scalar(
            "batched_hot_path.lane_dispatched.median_ns_per_op",
            lane_simd_ns,
        );
        m.scalar("serve_fleet.drain_accesses_per_sec", serve_drain);
        m.scalar("serve_fleet.wall_accesses_per_sec", serve_wall);
        m.scalar("replay_speedup.full_sim_13_policies.median_ms", full_ms);
        m.scalar(
            "replay_speedup.record_and_replay_13_policies.median_ms",
            replay_ms,
        );
        m.scalar("replay_speedup.speedup", ratio);
    }
    finish_manifest(manifest);
}
