//! Uniform feature-associativity sweep (Figure 9).
//!
//! "For the 900 multi-programmed workloads, we fix the A parameter for
//! each feature from 1 through 18 and observe the resulting performance"
//! (§6.4). The original variable-associativity feature set is the final
//! reference point.

use mrp_cache::HierarchyConfig;
use mrp_core::mpppb::{Mpppb, MpppbConfig};
use mrp_core::Feature;
use mrp_cpu::metrics::geometric_mean;
use mrp_trace::MixBuilder;

use crate::runner::{run_mixes, RunScale};

/// Result of the sweep.
#[derive(Debug, Clone)]
pub struct AssocSweep {
    /// Geomean weighted speedup for each uniform A in 1..=18.
    pub uniform: Vec<(u8, f64)>,
    /// Geomean weighted speedup of the original variable-A feature set.
    pub original: f64,
}

/// Applies a uniform associativity to every feature of a set.
pub fn with_uniform_assoc(features: &[Feature], assoc: u8) -> Vec<Feature> {
    features
        .iter()
        .map(|f| Feature::new(assoc, f.kind, f.xor_pc))
        .collect()
}

/// Runs the sweep over `mix_count` mixes; `assoc_step` lets reduced runs
/// sample every k-th associativity. `scale.seed` draws the mixes and
/// seeds the standalone-IPC traces.
pub fn run(scale: RunScale, mix_count: usize, assoc_step: usize) -> AssocSweep {
    let builder = MixBuilder::new(scale.seed);
    let config = HierarchyConfig::multi_core();
    let base = MpppbConfig::multi_core(&config.llc);

    let mixes: Vec<_> = (0..mix_count.max(1))
        .map(|i| builder.mix(100 + i))
        .collect();
    // Candidate feature sets: each sampled uniform associativity, then
    // the original variable-A set last. Each set's geomean reduces its
    // column in mix order.
    let assocs: Vec<u8> = (1..=18u8).step_by(assoc_step.max(1)).collect();
    let mut sets: Vec<Vec<Feature>> = assocs
        .iter()
        .map(|&a| with_uniform_assoc(&base.features, a))
        .collect();
    sets.push(base.features.clone());

    let run = run_mixes(scale, &mixes, &sets, |set| {
        let policy_config = base.clone().with_features(set.clone());
        Box::new(Mpppb::new(policy_config, &config.llc))
    });
    let geomean_of = |si: usize| {
        let speedups: Vec<f64> = run.rows.iter().map(|cells| cells[1 + si].speedup).collect();
        geometric_mean(&speedups)
    };

    let uniform = assocs
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, geomean_of(i)))
        .collect();
    let original = geomean_of(assocs.len());

    AssocSweep { uniform, original }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_core::feature_sets;

    #[test]
    fn uniform_assoc_rewrites_every_feature() {
        let set = feature_sets::table_2();
        let uniform = with_uniform_assoc(&set, 5);
        assert!(uniform.iter().all(|f| f.assoc == 5));
        assert_eq!(uniform.len(), set.len());
        // Kinds are preserved.
        for (a, b) in set.iter().zip(&uniform) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.xor_pc, b.xor_pc);
        }
    }

    #[test]
    fn sweep_produces_points() {
        let scale = RunScale::multi_core()
            .warmup(15_000)
            .measure(60_000)
            .seed(5);
        let sweep = run(scale, 1, 9);
        assert_eq!(sweep.uniform.len(), 2); // A = 1, 10
        assert!(sweep.original > 0.0);
        for (_, s) in &sweep.uniform {
            assert!(*s > 0.0);
        }
    }
}
