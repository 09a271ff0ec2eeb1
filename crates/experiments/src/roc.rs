//! ROC accuracy measurement (Figures 1 and 8).
//!
//! Each predictor runs in measure-only mode ("we modify the simulator to
//! make the prediction but not apply the optimization", §6.3). A probe
//! wraps the policy and labels every prediction with its eventual ground
//! truth: *dead* if the block is evicted before its next use, *live* if it
//! is re-referenced while resident. Sweeping the decision threshold yields
//! (false positive rate, true positive rate) curves, averaged across
//! workloads.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mrp_baselines::{PerceptronPolicy, Sdbp};
use mrp_cache::{AccessInfo, Cache, CacheConfig, HierarchyConfig, ReplacementPolicy};
use mrp_core::mpppb::{Mpppb, MpppbConfig};
use mrp_cpu::replay_single;
use mrp_trace::{workloads, MemoryAccess};

use crate::runner::{record, RunScale};

/// A policy that exposes the confidence of its most recent prediction.
pub trait ConfidenceSource: ReplacementPolicy {
    /// Confidence of the latest prediction (more positive = more dead).
    fn confidence(&self) -> i32;
}

impl ConfidenceSource for Mpppb {
    fn confidence(&self) -> i32 {
        self.last_confidence()
    }
}

impl ConfidenceSource for Sdbp {
    fn confidence(&self) -> i32 {
        self.last_confidence()
    }
}

impl ConfidenceSource for PerceptronPolicy {
    fn confidence(&self) -> i32 {
        self.last_confidence()
    }
}

/// One labeled prediction: the confidence produced at access time and
/// whether the block turned out dead.
pub type Sample = (i32, bool);

/// Wraps a measure-only predictor policy, labeling predictions with
/// ground truth as blocks are reused or evicted.
pub struct RocProbe<P> {
    inner: P,
    pending: HashMap<u64, i32>,
    samples: Arc<Mutex<Vec<Sample>>>,
}

impl<P: ConfidenceSource> RocProbe<P> {
    /// Wraps `inner`; resolved samples appear in `samples`.
    pub fn new(inner: P, samples: Arc<Mutex<Vec<Sample>>>) -> Self {
        RocProbe {
            inner,
            pending: HashMap::new(),
            samples,
        }
    }

    fn resolve(&mut self, block: u64, dead: bool) {
        if let Some(confidence) = self.pending.remove(&block) {
            self.samples
                .lock()
                .expect("sample lock")
                .push((confidence, dead));
        }
    }
}

impl<P: ConfidenceSource> ReplacementPolicy for RocProbe<P> {
    fn name(&self) -> &str {
        "roc-probe"
    }

    fn on_access(&mut self, info: &AccessInfo) {
        self.inner.on_access(info);
    }

    fn on_core_access(&mut self, access: &MemoryAccess) {
        self.inner.on_core_access(access);
    }

    fn uses_core_accesses(&self) -> bool {
        self.inner.uses_core_accesses()
    }

    fn on_hit(&mut self, info: &AccessInfo, way: u32) {
        // The pending prediction said "dead"; the block was reused: live.
        self.resolve(info.block, false);
        self.inner.on_hit(info, way);
        self.pending.insert(info.block, self.inner.confidence());
    }

    fn should_bypass(&mut self, info: &AccessInfo) -> bool {
        let bypass = self.inner.should_bypass(info);
        debug_assert!(!bypass, "probe requires measure-only inner policy");
        self.pending.insert(info.block, self.inner.confidence());
        bypass
    }

    fn choose_victim(&mut self, info: &AccessInfo, occupants: &[u64]) -> u32 {
        self.inner.choose_victim(info, occupants)
    }

    fn uses_victim_occupants(&self) -> bool {
        self.inner.uses_victim_occupants()
    }

    fn on_evict(&mut self, set: u32, way: u32, block: u64) {
        // Evicted without reuse since its last prediction: dead.
        self.resolve(block, true);
        self.inner.on_evict(set, way, block);
    }

    fn on_fill(&mut self, info: &AccessInfo, way: u32) {
        self.inner.on_fill(info, way);
    }
}

/// The three predictors the ROC figures compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RocPredictor {
    /// The paper's multiperspective predictor.
    Multiperspective,
    /// Perceptron reuse prediction.
    Perceptron,
    /// Sampling dead block prediction.
    Sdbp,
}

impl RocPredictor {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            RocPredictor::Multiperspective => "Multiperspective",
            RocPredictor::Perceptron => "Perceptron",
            RocPredictor::Sdbp => "SDBP",
        }
    }

    /// Threshold sweep grid matched to the predictor's confidence range.
    pub fn thresholds(&self) -> Vec<i32> {
        match self {
            RocPredictor::Multiperspective => (-300..=300).step_by(4).collect(),
            RocPredictor::Perceptron => (-200..=200).step_by(4).collect(),
            RocPredictor::Sdbp => (-1..=10).collect(),
        }
    }

    fn build_probe(
        &self,
        llc: &CacheConfig,
        samples: Arc<Mutex<Vec<Sample>>>,
    ) -> Box<dyn ReplacementPolicy + Send> {
        match self {
            RocPredictor::Multiperspective => {
                let mut config = MpppbConfig::single_thread(llc);
                config.measure_only = true;
                Box::new(RocProbe::new(Mpppb::new(config, llc), samples))
            }
            RocPredictor::Perceptron => {
                let mut p = PerceptronPolicy::new(llc, 160.min(llc.sets()));
                p.set_measure_only(true);
                Box::new(RocProbe::new(p, samples))
            }
            RocPredictor::Sdbp => {
                let mut p = Sdbp::new(llc, 64.min(llc.sets()));
                p.set_measure_only(true);
                Box::new(RocProbe::new(p, samples))
            }
        }
    }
}

/// One averaged ROC curve.
#[derive(Debug, Clone)]
pub struct RocCurve {
    /// Predictor name.
    pub predictor: String,
    /// (threshold, mean FPR, mean TPR) per grid point.
    pub points: Vec<(i32, f64, f64)>,
}

impl RocCurve {
    /// TPR at the grid point whose FPR is closest to `fpr` (used to probe
    /// the paper's 25–31% bypass region).
    pub fn tpr_at_fpr(&self, fpr: f64) -> f64 {
        self.points
            .iter()
            .min_by(|a, b| {
                (a.1 - fpr)
                    .abs()
                    .partial_cmp(&(b.1 - fpr).abs())
                    .expect("finite")
            })
            .map(|p| p.2)
            .unwrap_or(0.0)
    }
}

/// Computes per-threshold (FPR, TPR) for one workload's samples.
pub fn rates(samples: &[Sample], thresholds: &[i32]) -> Vec<(f64, f64)> {
    let dead_total = samples.iter().filter(|(_, d)| *d).count().max(1) as f64;
    let live_total = samples.iter().filter(|(_, d)| !*d).count().max(1) as f64;
    thresholds
        .iter()
        .map(|&t| {
            let mut true_positive = 0usize;
            let mut false_positive = 0usize;
            for &(confidence, dead) in samples {
                if confidence > t {
                    if dead {
                        true_positive += 1;
                    } else {
                        false_positive += 1;
                    }
                }
            }
            (
                false_positive as f64 / live_total,
                true_positive as f64 / dead_total,
            )
        })
        .collect()
}

/// Runs the ROC experiment over `workload_count` workloads.
///
/// One job per workload records its LLC stream, drives every predictor's
/// probe over it in series and drops it, so at most one recording per
/// worker is alive. Per-workload rate curves are then averaged in suite
/// order.
pub fn run(scale: RunScale, workload_count: usize) -> Vec<RocCurve> {
    let suite = workloads::suite();
    let count = workload_count.min(suite.len()).max(1);
    let predictors = [
        RocPredictor::Sdbp,
        RocPredictor::Perceptron,
        RocPredictor::Multiperspective,
    ];
    let config = HierarchyConfig::single_thread();
    let per_workload: Vec<Vec<Vec<(f64, f64)>>> = mrp_runtime::par_map(&suite[..count], |w| {
        let rec = record(w, scale);
        predictors
            .iter()
            .map(|predictor| {
                // The probe sees the LLC operations full simulation would,
                // so its samples are bit-identical to it; the timing result
                // is discarded.
                let samples = Arc::new(Mutex::new(Vec::new()));
                let probe = predictor.build_probe(&config.llc, samples.clone());
                let _ = replay_single(&rec, &mut Cache::new(config.llc, probe), &config.latencies);
                let collected = samples.lock().expect("sample lock");
                rates(&collected, &predictor.thresholds())
            })
            .collect()
    });
    predictors
        .iter()
        .enumerate()
        .map(|(pi, predictor)| {
            let thresholds = predictor.thresholds();
            let mut sums: Vec<(f64, f64)> = vec![(0.0, 0.0); thresholds.len()];
            for workload in &per_workload {
                for (i, &(fpr, tpr)) in workload[pi].iter().enumerate() {
                    sums[i].0 += fpr;
                    sums[i].1 += tpr;
                }
            }
            RocCurve {
                predictor: predictor.name().to_string(),
                points: thresholds
                    .iter()
                    .zip(sums)
                    .map(|(&t, (fpr, tpr))| (t, fpr / count as f64, tpr / count as f64))
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_monotone_in_threshold() {
        let samples: Vec<Sample> = (0..100).map(|i| (i - 50, i % 3 == 0)).collect();
        let thresholds: Vec<i32> = (-60..=60).step_by(10).collect();
        let r = rates(&samples, &thresholds);
        for pair in r.windows(2) {
            assert!(pair[0].0 >= pair[1].0, "FPR must fall as threshold rises");
            assert!(pair[0].1 >= pair[1].1, "TPR must fall as threshold rises");
        }
    }

    #[test]
    fn perfect_predictor_has_ideal_corner() {
        // Confidence 100 for dead, -100 for live.
        let samples: Vec<Sample> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    (100, true)
                } else {
                    (-100, false)
                }
            })
            .collect();
        let r = rates(&samples, &[0]);
        assert_eq!(r[0], (0.0, 1.0));
    }

    #[test]
    fn probe_collects_resolved_samples() {
        let scale = RunScale::single_thread().warmup(20_000).measure(100_000);
        let curves = run(scale, 1);
        assert_eq!(curves.len(), 3);
        for c in &curves {
            assert!(!c.points.is_empty());
            // Extreme thresholds bracket the rate range.
            let first = c.points.first().expect("nonempty");
            let last = c.points.last().expect("nonempty");
            assert!(first.1 >= last.1);
        }
    }
}
