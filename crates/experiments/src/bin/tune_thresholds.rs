//! Threshold/position tuning for MPPPB (paper §5.5).
//!
//! "The bypass threshold τ0 is set first by an exhaustive search of all
//! possible values. Then the values of τ1, τ2, τ3, π1, π2, and π3 are
//! searched by generating thousands of random feasible combinations ...
//! selecting the combination yielding the minimum average MPKI."
//!
//! Usage: `cargo run -p mrp-experiments --release --bin tune_thresholds --
//! [--combos N] [--workloads N] [--instructions N] [--seed N] [--mode st|mp] [--threads N]
//! [--metrics] [--manifest-dir DIR]`
//!
//! Training streams come from the shared recording cache (recorded once
//! per workload).

use mrp_cache::Cache;
use mrp_core::mpppb::{Mpppb, MpppbConfig};
use mrp_search::{crossval, FastEvaluator};
use mrp_trace::workloads;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mrp_experiments::{finish_manifest, Args};
use mrp_obs::Json;

/// Damping added to MPKI ratios so near-zero-MPKI workloads don't blow up.
const EPS: f64 = 0.05;

/// Mean MPKI ratio vs. LRU over the training traces (1.0 = LRU parity;
/// lower is better). Ratio-to-baseline weights every workload equally, as
/// a speedup geomean does, instead of letting the highest-MPKI workload
/// dominate a plain average.
fn mean_mpki_ratio(evaluator: &FastEvaluator, lru: &[f64], config: &MpppbConfig) -> f64 {
    let llc = *evaluator.llc();
    // One replay per trace, each against its own policy instance; the sum
    // reduces in trace order so the ratio matches the serial loop exactly.
    let ratios = mrp_runtime::map_indexed(evaluator.traces().len(), |i| {
        let mut cache = Cache::new(llc, Box::new(Mpppb::new(config.clone(), &llc)));
        (evaluator.traces()[i].replay(&mut cache) + EPS) / (lru[i] + EPS)
    });
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

fn main() {
    let args = Args::parse();
    args.init_runtime_options();
    let combos = args.get_usize("combos", 200);
    let workload_count = args.get_usize("workloads", 12);
    let instructions = args.get_u64("instructions", 2_000_000);
    let seed = args.get_u64("seed", 17);
    let mode = args.get_str("mode", "st");
    let feature_choice = args.get_str("features", "default");
    let mut manifest = args.init_metrics("tune_thresholds", seed);

    let suite = workloads::suite();
    let (train, _) = crossval::split(&suite, seed);
    let selected: Vec<_> = train.into_iter().take(workload_count).collect();
    eprintln!(
        "tuning on: {}",
        selected
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let evaluator = mrp_experiments::recording::fast_evaluator(&selected, seed, instructions);

    let llc = *evaluator.llc();
    let mut base = if mode == "mp" {
        MpppbConfig::multi_core(&llc)
    } else {
        MpppbConfig::single_thread(&llc)
    };
    match feature_choice.as_str() {
        "default" => {}
        "table1a" => base.features = mrp_core::feature_sets::table_1a(),
        "table1b" => base.features = mrp_core::feature_sets::table_1b(),
        "table2" => base.features = mrp_core::feature_sets::table_2(),
        "perceptron" => base.features = mrp_core::feature_sets::perceptron_like(),
        other => panic!("unknown --features {other}"),
    }
    let max_position = if mode == "mp" { 3u32 } else { 15u32 };

    let lru = evaluator.lru_mpkis().to_vec();
    let baseline_ratio = mean_mpki_ratio(&evaluator, &lru, &base);
    eprintln!("baseline (current defaults): mean MPKI ratio {baseline_ratio:.4}");

    // Random feasible combinations over ALL the policy parameters. The
    // training threshold theta bounds the equilibrium confidence
    // magnitude, so the decision thresholds are drawn relative to it
    // rather than on an absolute scale.
    // Combinations come from one serial RNG stream; scoring them is
    // embarrassingly parallel, and the best-so-far scan walks the scores
    // in draw order, so the winner matches the serial loop's.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ea5);
    let configs: Vec<MpppbConfig> = (0..combos)
        .map(|_| {
            let mut config = base.clone();
            let theta = rng.gen_range(5..120);
            config.training_threshold = theta;
            let scale = theta + 30;
            // ~15% of candidates disable bypass outright.
            config.bypass_threshold = if rng.gen_range(0..100) < 15 {
                i32::MAX / 2
            } else {
                rng.gen_range(scale / 2..scale * 3)
            };
            // Feasible: tau1 >= tau2 >= tau3, all below tau0.
            let tau_hi = config.bypass_threshold.min(scale * 3);
            let mut taus: Vec<i32> = (0..3).map(|_| rng.gen_range(-scale..tau_hi)).collect();
            taus.sort_unstable_by(|a, b| b.cmp(a));
            config.place_thresholds = [taus[0], taus[1], taus[2]];
            let mut pis: Vec<u32> = (0..3).map(|_| rng.gen_range(0..=max_position)).collect();
            pis.sort_unstable_by(|a, b| b.cmp(a));
            config.positions = [pis[0], pis[1], pis[2]];
            config.promote_threshold = rng.gen_range(0..scale * 3);
            config
        })
        .collect();
    let ratios = mrp_runtime::par_map(&configs, |c| mean_mpki_ratio(&evaluator, &lru, c));

    let mut best = base.clone();
    let mut best_mpki = baseline_ratio;
    for (i, (config, &mpki)) in configs.iter().zip(&ratios).enumerate() {
        if mpki < best_mpki {
            best_mpki = mpki;
            best = config.clone();
            eprintln!(
                "  combo {i:4}: {mpki:.4}  tau0={} taus={:?} pis={:?} tau4={} theta={}",
                best.bypass_threshold,
                best.place_thresholds,
                best.positions,
                best.promote_threshold,
                best.training_threshold
            );
        }
    }

    println!("# tuned MPPPB parameters (mode {mode}), mean MPKI ratio vs LRU {best_mpki:.4}");
    println!("bypass_threshold: {}", best.bypass_threshold);
    println!("place_thresholds: {:?}", best.place_thresholds);
    println!("positions: {:?}", best.positions);
    println!("promote_threshold: {}", best.promote_threshold);
    println!("training_threshold: {}", best.training_threshold);

    if let Some(m) = manifest.as_mut() {
        m.meta("mode", Json::Str(mode.clone()));
        m.meta("features", Json::Str(feature_choice.clone()));
        m.meta("combos", Json::U64(combos as u64));
        m.scalar("baseline_ratio", baseline_ratio);
        m.scalar("tuned_ratio", best_mpki);
        m.scalar("bypass_threshold", best.bypass_threshold as f64);
        m.scalar("promote_threshold", best.promote_threshold as f64);
        m.scalar("training_threshold", best.training_threshold as f64);
    }
    finish_manifest(manifest);
}
