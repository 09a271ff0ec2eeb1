//! Per-workload feature-contribution analysis (Table 3).
//!
//! The paper runs the leave-one-out experiment per SPEC CPU 2017 simpoint
//! — a *fresh* testing set unused during feature design — and reports, for
//! each feature, a workload where it contributes the most MPKI reduction.
//! We reproduce the analysis on the workload suite with a fresh seed
//! (producing different concrete traces than any tuning run), using the
//! Table 1(b) feature set as the paper does, on the fast MPKI evaluator.

use mrp_core::{feature_sets, Feature};
use mrp_search::replay_mpki;
use mrp_trace::workloads;

use mrp_cache::replay::LlcRecording;
use mrp_cache::CacheConfig;
use mrp_core::mpppb::{Mpppb, MpppbConfig};

use crate::runner::{record, RunScale};

/// One row of the Table 3 reproduction.
#[derive(Debug, Clone)]
pub struct ContributionRow {
    /// Feature in the paper's notation.
    pub feature: String,
    /// The workload where this feature helps most.
    pub workload: String,
    /// MPKI with the feature removed.
    pub mpki_without: f64,
    /// MPKI with the full feature set.
    pub mpki_with: f64,
    /// Percent MPKI increase when the feature is removed.
    pub percent_increase: f64,
}

/// Runs the analysis: for every feature of Table 1(b), find the workload
/// (among the first `workload_count`) where removing it hurts most.
pub fn run(workload_count: usize, instructions: u64, seed: u64) -> Vec<ContributionRow> {
    let suite = workloads::suite();
    let count = workload_count.min(suite.len()).max(1);
    let features = feature_sets::table_1b();
    let llc = CacheConfig::llc_single();
    let base = MpppbConfig::single_thread(&llc).with_features(features.clone());

    // One job per workload records its LLC stream cold (fresh seed =
    // fresh traces), replays it with the full set and each leave-one-out
    // set in series, and drops it: at most one recording per worker.
    let scale = RunScale::single_thread()
        .warmup(0)
        .measure(instructions)
        .seed(seed);
    let evaluate = |features: Vec<Feature>, recording: &LlcRecording| -> f64 {
        let config = base.clone().with_features(features);
        replay_mpki(recording, llc, Box::new(Mpppb::new(config, &llc)))
    };
    // Per workload: MPKI with the full set, then without each feature.
    let mpkis: Vec<(f64, Vec<f64>)> = mrp_runtime::par_map(&suite[..count], |w| {
        let rec = record(w, scale);
        let with = evaluate(features.clone(), &rec);
        let without = (0..features.len())
            .map(|fi| {
                let mut reduced = features.clone();
                reduced.remove(fi);
                evaluate(reduced, &rec)
            })
            .collect();
        (with, without)
    });

    features
        .iter()
        .enumerate()
        .map(|(i, f)| {
            // Find the workload with the largest relative MPKI increase.
            let mut best: Option<ContributionRow> = None;
            for (w, (with, without)) in suite.iter().zip(&mpkis) {
                let (with, without) = (*with, without[i]);
                let percent = if with > 0.0 {
                    (without - with) / with * 100.0
                } else {
                    0.0
                };
                let candidate = ContributionRow {
                    feature: f.to_string(),
                    workload: w.name().to_string(),
                    mpki_without: without,
                    mpki_with: with,
                    percent_increase: percent,
                };
                if best
                    .as_ref()
                    .map(|b| candidate.percent_increase > b.percent_increase)
                    .unwrap_or(true)
                {
                    best = Some(candidate);
                }
            }
            best.expect("at least one workload")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_one_row_per_feature() {
        let rows = run(2, 150_000, 99);
        assert_eq!(rows.len(), 16);
        for row in &rows {
            assert!(!row.feature.is_empty());
            assert!(!row.workload.is_empty());
            assert!(row.mpki_with.is_finite());
            assert!(row.mpki_without.is_finite());
        }
    }
}
