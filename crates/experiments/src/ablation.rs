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
use mrp_trace::MixBuilder;

use crate::runner::{run_mixes, RunScale};

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

/// The feature sets an ablation of the first `limit` features runs: the
/// full set first, then each distinct leave-one-out set. Also returns,
/// per ablated feature, the index of its leave-one-out set.
///
/// Table 1(a) lists `pc(17,6,20,0,1)` twice, so omitting either copy
/// leaves the same set; it runs once and both report rows read it.
fn candidate_sets(features: &[Feature], limit: usize) -> (Vec<Vec<Feature>>, Vec<usize>) {
    let mut sets = vec![features.to_vec()];
    let columns = (0..limit)
        .map(|i| {
            let set = without(features, i);
            sets.iter().position(|s| *s == set).unwrap_or_else(|| {
                sets.push(set);
                sets.len() - 1
            })
        })
        .collect();
    (sets, columns)
}

/// Runs the ablation of the Table 1(a) set over `mix_count` mixes,
/// ablating only the first `feature_limit` features (16 = full study).
/// `scale.seed` draws the mixes and seeds the standalone-IPC traces.
pub fn run(scale: RunScale, mix_count: usize, feature_limit: usize) -> Ablation {
    let builder = MixBuilder::new(scale.seed);
    let config = HierarchyConfig::multi_core();
    // Fig. 10 uses the single-thread Table 1(a) features over the
    // multi-programmed setup (SRRIP default).
    let base = MpppbConfig::multi_core(&config.llc).with_features(feature_sets::table_1a());

    let mixes: Vec<_> = (0..mix_count.max(1))
        .map(|i| builder.mix(100 + i))
        .collect();
    // Each set's geomean reduces its column in mix order.
    let limit = feature_limit.max(1).min(base.features.len());
    let (sets, columns) = candidate_sets(&base.features, limit);

    let run = run_mixes(scale, &mixes, &sets, |set| {
        let policy_config = base.clone().with_features(set.clone());
        Box::new(Mpppb::new(policy_config, &config.llc))
    });
    let geomean_of = |si: usize| {
        let speedups: Vec<f64> = run.rows.iter().map(|cells| cells[1 + si].speedup).collect();
        geometric_mean(&speedups)
    };

    let original = geomean_of(0);
    let omitted = base
        .features
        .iter()
        .take(limit)
        .zip(&columns)
        .map(|(f, &si)| (f.to_string(), geomean_of(si)))
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

    #[test]
    fn duplicate_features_share_one_leave_one_out_set() {
        // Table 1(a)'s rows 12 and 13 are the two copies of
        // `pc(17,6,20,0,1)`: 16 ablated features, 15 distinct sets.
        let features = feature_sets::table_1a();
        let (sets, columns) = candidate_sets(&features, features.len());
        assert_eq!(sets.len(), 1 + 15);
        assert_eq!(sets[0], features);
        assert_eq!(columns[12], columns[13]);
        for (i, &si) in columns.iter().enumerate() {
            assert_eq!(sets[si], without(&features, i));
        }
    }
}
