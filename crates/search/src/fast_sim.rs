//! Fast MPKI-only evaluation of candidate feature sets.
//!
//! The stream reaching the LLC depends only on the trace and the levels
//! above the LLC, never on the LLC policy, so each workload's
//! [`LlcRecording`] is made once and every candidate replays it against a
//! cold LLC. (Prefetch fills are part of the stream; they are replayed
//! with their prefetch flag.)

use std::fmt;

use mrp_cache::policies::Lru;
use mrp_cache::replay::LlcRecording;
use mrp_cache::{CacheConfig, HierarchyConfig, ReplacementPolicy};
use mrp_core::mpppb::{Mpppb, MpppbConfig};
use mrp_core::{EngineConfig, Feature};
use mrp_trace::Workload;

/// Demand-miss MPKI of `policy` replayed on `recording` against a cold
/// LLC of geometry `llc`.
///
/// Demand accesses are fed to the policy's `on_core_access` first,
/// standing in for the full per-access history the hierarchy would
/// provide (documented substitution: the fast simulator's PC history is
/// LLC-filtered).
pub fn replay_mpki(
    recording: &LlcRecording,
    llc: CacheConfig,
    policy: Box<dyn ReplacementPolicy + Send>,
) -> f64 {
    let mut engine = EngineConfig::new(llc).policy(policy).build();
    recording.replay_llc(engine.cache_mut());
    engine.cache().stats().demand_misses as f64 * 1000.0 / recording.instructions() as f64
}

/// Evaluates candidate feature sets against a suite of recorded streams.
pub struct FastEvaluator {
    recordings: Vec<LlcRecording>,
    llc: CacheConfig,
    base_config: MpppbConfig,
    lru_mpkis: Vec<f64>,
}

/// Damping added to MPKI ratios so near-zero-MPKI workloads don't explode
/// the ratio objective.
const RATIO_EPS: f64 = 0.05;

impl fmt::Debug for FastEvaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastEvaluator")
            .field("recordings", &self.recordings.len())
            .finish()
    }
}

impl FastEvaluator {
    /// Records the given workloads once, cold (as the paper's fast
    /// simulator does). `instructions` bounds each recording.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty.
    pub fn new(workloads: &[Workload], seed: u64, instructions: u64) -> Self {
        assert!(!workloads.is_empty(), "need at least one workload");
        // Each recording is an independent simulation of its own trace
        // stream, so the suite records in parallel.
        let recordings = mrp_runtime::par_map(workloads, |w| {
            LlcRecording::record(
                w.name(),
                w.trace(seed),
                &HierarchyConfig::single_thread(),
                0,
                instructions,
            )
        });
        FastEvaluator::from_recordings(recordings)
    }

    /// Builds an evaluator from streams the caller recorded (cold, on the
    /// single-thread hierarchy, as [`FastEvaluator::new`] records them).
    ///
    /// # Panics
    ///
    /// Panics if `recordings` is empty.
    pub fn from_recordings(recordings: Vec<LlcRecording>) -> Self {
        assert!(!recordings.is_empty(), "need at least one recording");
        let llc = CacheConfig::llc_single();
        let lru_mpkis = mrp_runtime::par_map(&recordings, |r| {
            replay_mpki(r, llc, Box::new(Lru::new(llc.sets(), llc.associativity())))
        });
        FastEvaluator {
            recordings,
            llc,
            base_config: MpppbConfig::single_thread(&llc),
            lru_mpkis,
        }
    }

    /// Evaluates MPPPB under `config` across the recorded suite,
    /// returning `(average MPKI, mean MPKI ratio vs. LRU)`.
    ///
    /// The plain average is what the paper's Figure 3 plots; the
    /// LRU-normalized ratio (lower is better, 1.0 = parity) weights every
    /// workload equally and is the selection objective, so that one
    /// enormous-MPKI workload cannot dominate the search.
    pub fn evaluate_config(&self, config: &MpppbConfig) -> (f64, f64) {
        // Each recording replays against its own policy instance in
        // parallel; the two sums then reduce in recording order, so the
        // result is bit-identical to the serial loop. (Fan-outs above —
        // e.g. over search candidates — make this call run serially on
        // the worker; see `mrp_runtime` on nesting.)
        let scores: Vec<(f64, f64)> = mrp_runtime::map_indexed(self.recordings.len(), |i| {
            let policy = Box::new(Mpppb::new(config.clone(), &self.llc));
            let mpki = replay_mpki(&self.recordings[i], self.llc, policy);
            (mpki, (mpki + RATIO_EPS) / (self.lru_mpkis[i] + RATIO_EPS))
        });
        let mut total_mpki = 0.0;
        let mut total_ratio = 0.0;
        for &(mpki, ratio) in &scores {
            total_mpki += mpki;
            total_ratio += ratio;
        }
        let n = self.recordings.len() as f64;
        (total_mpki / n, total_ratio / n)
    }

    /// [`evaluate_config`](Self::evaluate_config) of the base
    /// configuration with its features replaced by `features`.
    pub fn evaluate(&self, features: &[Feature]) -> (f64, f64) {
        self.evaluate_config(&self.base_config.clone().with_features(features.to_vec()))
    }

    /// Average MPKI of MPPPB with `features` across the recorded suite.
    pub fn average_mpki(&self, features: &[Feature]) -> f64 {
        self.evaluate(features).0
    }

    /// Overrides the MPPPB policy parameters (thresholds/positions) used
    /// when evaluating candidate feature sets.
    pub fn set_base_config(&mut self, config: MpppbConfig) {
        self.base_config = config;
    }

    /// Average MPKI of an arbitrary policy builder across the suite (used
    /// for the LRU and MIN reference lines in Figure 3). The builder also
    /// receives the recording so stream-derived policies (MIN) can be
    /// built.
    ///
    /// The builder runs once per recording, possibly concurrently, so it
    /// must be `Fn + Sync`; per-recording MPKIs reduce in suite order.
    pub fn average_mpki_with<F>(&self, make_policy: F) -> f64
    where
        F: Fn(&CacheConfig, &LlcRecording) -> Box<dyn ReplacementPolicy + Send> + Sync,
    {
        let mpkis = mrp_runtime::par_map(&self.recordings, |r| {
            replay_mpki(r, self.llc, make_policy(&self.llc, r))
        });
        mpkis.iter().sum::<f64>() / self.recordings.len() as f64
    }

    /// The LLC geometry candidates are evaluated on.
    pub fn llc(&self) -> &CacheConfig {
        &self.llc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_core::feature_sets;
    use mrp_trace::workloads;

    fn small_evaluator() -> FastEvaluator {
        let suite = workloads::suite();
        // One friendly and one hostile workload, small instruction budget.
        FastEvaluator::new(&[suite[3].clone(), suite[0].clone()], 7, 200_000)
    }

    #[test]
    fn recorded_stream_is_nonempty_and_replayable() {
        let e = small_evaluator();
        assert_eq!(e.recordings.len(), 2);
        for r in &e.recordings {
            assert!(r.llc_len() > 0, "{} stream empty", r.name());
            assert!(r.instructions() >= 200_000);
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let e = small_evaluator();
        let a = e.average_mpki(&feature_sets::table_1a());
        let b = e.average_mpki(&feature_sets::table_1a());
        assert_eq!(a, b);
    }

    #[test]
    fn lru_reference_is_computable() {
        let e = small_evaluator();
        let lru = e.average_mpki_with(|llc, _| Box::new(Lru::new(llc.sets(), llc.associativity())));
        assert!(lru > 0.0);
    }

    #[test]
    fn published_features_do_not_crash_and_give_finite_mpki() {
        let e = small_evaluator();
        for set in [
            feature_sets::table_1a(),
            feature_sets::table_1b(),
            feature_sets::table_2(),
        ] {
            let mpki = e.average_mpki(&set);
            assert!(mpki.is_finite() && mpki >= 0.0);
        }
    }
}
