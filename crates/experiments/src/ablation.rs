//! Leave-one-feature-out ablation (Figure 10).
//!
//! "Each bar shows the speedup obtained over the 900 multi-programmed
//! workloads when a given feature is removed from the set" (§6.4). The
//! paper ablates the Table 1(a) single-thread set on the multi-programmed
//! workloads; we do the same.

use mrp_cache::HierarchyConfig;
use mrp_core::mpppb::{Mpppb, MpppbConfig};
use mrp_core::{feature_sets, Feature};
use mrp_cpu::metrics::geometric_mean;
use mrp_trace::{workloads, MixBuilder};

use crate::policies::PolicyKind;
use crate::runner::{mix_standalone, run_mix_kind, run_mix_policy, standalone_ipcs, RunScale};

/// Result of the ablation study.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Geomean weighted speedup with the full feature set.
    pub original: f64,
    /// (feature notation, geomean speedup with that feature omitted).
    pub omitted: Vec<(String, f64)>,
}

impl Ablation {
    /// The feature whose removal hurts most (largest speedup drop).
    pub fn most_valuable(&self) -> &(String, f64) {
        self.omitted
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("nonempty ablation")
    }
}

/// Returns `features` with element `index` removed.
pub fn without(features: &[Feature], index: usize) -> Vec<Feature> {
    let mut out = features.to_vec();
    out.remove(index);
    out
}

/// Runs the ablation of the Table 1(a) set over `mix_count` mixes,
/// ablating only the first `feature_limit` features (16 = full study).
/// `scale.seed` draws the mixes and seeds the standalone-IPC traces.
pub fn run(scale: RunScale, mix_count: usize, feature_limit: usize) -> Ablation {
    let suite = workloads::suite();
    let builder = MixBuilder::new(scale.seed);
    let standalone = standalone_ipcs(&suite, scale);
    let config = HierarchyConfig::multi_core();
    // Fig. 10 uses the single-thread Table 1(a) features over the
    // multi-programmed setup (SRRIP default).
    let base = MpppbConfig::multi_core(&config.llc).with_features(feature_sets::table_1a());

    let mixes: Vec<_> = (0..mix_count.max(1))
        .map(|i| builder.mix(100 + i))
        .collect();
    let bases: Vec<Vec<f64>> = mixes
        .iter()
        .map(|m| mix_standalone(m, &standalone))
        .collect();
    let lru_weighted: Vec<f64> = mrp_runtime::map_indexed(mixes.len(), |mi| {
        run_mix_kind(&mixes[mi], PolicyKind::Lru, scale).weighted_ipc(&bases[mi])
    });

    // Candidate feature sets: the full set first, then each leave-one-out
    // set. One job per (set × mix) cell; each set's geomean reduces its
    // cells in mix order, exactly as the serial loop did.
    let limit = feature_limit.max(1).min(base.features.len());
    let mut sets: Vec<Vec<Feature>> = vec![base.features.clone()];
    sets.extend((0..limit).map(|i| without(&base.features, i)));

    let n_mixes = mixes.len();
    let cells: Vec<f64> = mrp_runtime::map_indexed(sets.len() * n_mixes, |job| {
        let (si, mi) = (job / n_mixes, job % n_mixes);
        let policy_config = base.clone().with_features(sets[si].clone());
        let policy = Box::new(Mpppb::new(policy_config, &config.llc));
        run_mix_policy(&mixes[mi], policy, scale).weighted_ipc(&bases[mi]) / lru_weighted[mi]
    });
    let geomean_of = |si: usize| geometric_mean(&cells[si * n_mixes..(si + 1) * n_mixes]);

    let original = geomean_of(0);
    let omitted = base
        .features
        .iter()
        .take(limit)
        .enumerate()
        .map(|(i, f)| (f.to_string(), geomean_of(i + 1)))
        .collect();

    Ablation { original, omitted }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_removes_exactly_one() {
        let set = feature_sets::table_1a();
        let reduced = without(&set, 3);
        assert_eq!(reduced.len(), set.len() - 1);
        assert_eq!(reduced[0], set[0]);
        assert_eq!(reduced[3], set[4]);
    }

    #[test]
    fn ablation_produces_one_entry_per_feature() {
        let scale = RunScale::multi_core()
            .warmup(10_000)
            .measure(50_000)
            .seed(5);
        let a = run(scale, 1, 2);
        assert_eq!(a.omitted.len(), 2);
        assert!(a.original > 0.0);
        let _ = a.most_valuable();
    }
}
