//! The `PredictionEngine` facade: one typed front door for building and
//! driving an LLC + reuse-predictor instance.
//!
//! Every entry point used to construct caches and policies ad-hoc —
//! driver binaries, replay loops and the serving fleet, each repeating
//! the same geometry/policy/knob plumbing. [`EngineConfig`] centralizes
//! construction (geometry, policy factory, [`RuntimeOptions`], optional
//! confidence telemetry) and [`PredictionEngine`] is the run-time
//! handle: feed it access batches with
//! [`submit_batch`](PredictionEngine::submit_batch), read a point-in-time
//! [`EngineStats`] with [`snapshot`](PredictionEngine::snapshot).
//!
//! The facade is policy-agnostic: anything implementing
//! [`ReplacementPolicy`] plugs in through
//! [`EngineConfig::policy_with`]. Batch submission reproduces the exact
//! hook protocol the replay loops use — per-access core-stream delivery
//! when the policy observes core accesses — so an engine fed the same
//! stream as a legacy loop lands on bit-identical state (held to that by
//! the facade-equivalence tests in `mrp-experiments`).

use mrp_cache::{AccessResult, Cache, CacheConfig, CacheStats, ReplacementPolicy};
use mrp_trace::MemoryAccess;

use crate::options::RuntimeOptions;

/// One access submitted to an engine — the trace record type, re-exported
/// so serving layers can name it without importing `mrp-trace`.
pub type Access = MemoryAccess;

type PolicyFactory = Box<dyn FnOnce(&CacheConfig) -> Box<dyn ReplacementPolicy + Send>>;

/// Builder for a [`PredictionEngine`].
///
/// ```ignore
/// let mut engine = EngineConfig::new(CacheConfig::llc_single())
///     .policy_with(|llc| Box::new(Mpppb::new(MpppbConfig::single_thread(llc), llc)))
///     .options(RuntimeOptions::default().no_simd(true))
///     .label("tenant-0")
///     .build();
/// let decisions = engine.submit_batch(&accesses);
/// ```
pub struct EngineConfig {
    llc: CacheConfig,
    policy: Option<PolicyFactory>,
    options: Option<RuntimeOptions>,
    label: String,
    track_confidence: bool,
}

impl EngineConfig {
    /// Starts a configuration for the LLC geometry `llc`.
    pub fn new(llc: CacheConfig) -> Self {
        EngineConfig {
            llc,
            policy: None,
            options: None,
            label: String::new(),
            track_confidence: false,
        }
    }

    /// Uses an already-constructed policy (must match the geometry).
    pub fn policy(mut self, policy: Box<dyn ReplacementPolicy + Send>) -> Self {
        self.policy = Some(Box::new(move |_| policy));
        self
    }

    /// Uses a policy built from the configured geometry at
    /// [`build`](EngineConfig::build) time — the usual form, since every
    /// policy sizes its per-set state from the `CacheConfig`.
    pub fn policy_with<F>(mut self, factory: F) -> Self
    where
        F: FnOnce(&CacheConfig) -> Box<dyn ReplacementPolicy + Send> + 'static,
    {
        self.policy = Some(Box::new(factory));
        self
    }

    /// Installs these [`RuntimeOptions`] process-wide when the engine is
    /// built. Without this call the build leaves the process-wide options
    /// as they are, so a driver's `--no-simd` stays pinned.
    pub fn options(mut self, options: RuntimeOptions) -> Self {
        self.options = Some(options);
        self
    }

    /// Display label carried into [`EngineStats`] (e.g. a tenant or
    /// shard name).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Enables per-decision confidence histograms (default off — the
    /// predictor hot path pays nothing unless telemetry asks).
    pub fn track_confidence(mut self, enabled: bool) -> Self {
        self.track_confidence = enabled;
        self
    }

    /// Constructs the engine: installs the runtime options given to
    /// [`options`](EngineConfig::options), if any, builds the policy
    /// against the geometry, and wires up telemetry.
    ///
    /// # Panics
    ///
    /// Panics if no policy was configured.
    pub fn build(self) -> PredictionEngine {
        if let Some(options) = self.options {
            options.install();
        }
        let factory = self
            .policy
            .expect("EngineConfig::build: no policy configured (use .policy / .policy_with)");
        let mut policy = factory(&self.llc);
        if self.track_confidence {
            policy.set_confidence_tracking(true);
        }
        PredictionEngine {
            llc: Cache::new(self.llc, policy),
            label: self.label,
            processed: 0,
            decisions: Decisions::default(),
        }
    }
}

/// Tally of the outcomes from one or more
/// [`submit_batch`](PredictionEngine::submit_batch) calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decisions {
    /// Accesses processed.
    pub processed: u64,
    /// Accesses that hit in the LLC.
    pub hits: u64,
    /// Accesses that missed and filled.
    pub misses: u64,
    /// Misses the policy chose to bypass.
    pub bypassed: u64,
}

impl Decisions {
    /// Accumulates another tally.
    pub fn merge(&mut self, other: &Decisions) {
        self.processed += other.processed;
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypassed += other.bypassed;
    }
}

/// Point-in-time statistics for one engine ([`PredictionEngine::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// The engine's configured label.
    pub label: String,
    /// Accesses submitted through the facade since construction.
    pub processed: u64,
    /// The LLC's counters.
    pub llc: CacheStats,
    /// Per-decision confidence histogram
    /// ([`crate::mpppb::CONFIDENCE_BINS`] bins), present when the policy
    /// tracks confidence and tracking is enabled.
    pub confidence: Option<Vec<u64>>,
}

impl EngineStats {
    /// Demand hit ratio in `[0, 1]` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        1.0 - self.llc.miss_ratio()
    }
}

/// A running LLC + predictor instance behind the typed facade.
pub struct PredictionEngine {
    llc: Cache,
    label: String,
    processed: u64,
    decisions: Decisions,
}

impl PredictionEngine {
    /// Submits demand accesses in order, mirroring the core stream into
    /// [`ReplacementPolicy::on_core_access`] when the policy observes it.
    /// Returns the outcome tally for this batch.
    pub fn submit_batch(&mut self, batch: &[Access]) -> Decisions {
        let core_stream = self.llc.policy_mut().uses_core_accesses();
        let mut tally = Decisions::default();
        for access in batch {
            if core_stream {
                self.llc.policy_mut().on_core_access(access);
            }
            match self.llc.access(access, false) {
                AccessResult::Hit => tally.hits += 1,
                AccessResult::Miss { .. } => tally.misses += 1,
                AccessResult::Bypassed => tally.bypassed += 1,
            }
            tally.processed += 1;
        }
        self.processed += tally.processed;
        self.decisions.merge(&tally);
        tally
    }

    /// A point-in-time statistics snapshot.
    pub fn snapshot(&self) -> EngineStats {
        EngineStats {
            label: self.label.clone(),
            processed: self.processed,
            llc: *self.llc.stats(),
            confidence: self.llc.policy().confidence_histogram(),
        }
    }

    /// Running tally across every batch submitted so far.
    pub fn decisions(&self) -> &Decisions {
        &self.decisions
    }

    /// The engine's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The underlying LLC (stats, probes, geometry).
    pub fn cache(&self) -> &Cache {
        &self.llc
    }

    /// Mutable access to the underlying LLC, for simulation front-ends
    /// that drive the cache directly (hierarchy sims, replay loops)
    /// while construction still flows through the facade.
    pub fn cache_mut(&mut self) -> &mut Cache {
        &mut self.llc
    }

    /// Unwraps the engine into its LLC, for front-ends that take
    /// ownership (e.g. hierarchy construction).
    pub fn into_llc(self) -> Cache {
        self.llc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpppb::{Mpppb, MpppbConfig, CONFIDENCE_BINS};

    fn engine(track: bool) -> PredictionEngine {
        EngineConfig::new(CacheConfig::llc_single())
            .policy_with(|llc| Box::new(Mpppb::new(MpppbConfig::single_thread(llc), llc)))
            .label("test")
            .track_confidence(track)
            .build()
    }

    fn stream(n: usize) -> Vec<Access> {
        (0..n)
            .map(|i| MemoryAccess::load(0x400000 + (i as u64 % 7) * 4, (i as u64 % 997) << 6))
            .collect()
    }

    #[test]
    fn batch_tally_matches_llc_stats() {
        let mut e = engine(false);
        let d = e.submit_batch(&stream(4096));
        assert_eq!(d.processed, 4096);
        assert_eq!(d.processed, d.hits + d.misses + d.bypassed);
        let s = e.snapshot();
        assert_eq!(s.processed, 4096);
        assert_eq!(s.llc.demand_hits, d.hits);
        assert_eq!(s.llc.demand_misses, d.misses + d.bypassed);
        assert_eq!(s.llc.bypasses, d.bypassed);
        assert_eq!(e.decisions(), &d);
        assert_eq!(s.label, "test");
    }

    #[test]
    fn confidence_histogram_present_only_when_tracked() {
        let mut e = engine(false);
        e.submit_batch(&stream(512));
        assert!(e.snapshot().confidence.is_none());

        let mut e = engine(true);
        let d = e.submit_batch(&stream(512));
        let hist = e.snapshot().confidence.expect("tracking enabled");
        assert_eq!(hist.len(), CONFIDENCE_BINS);
        // Every access produces exactly one prediction.
        assert_eq!(hist.iter().sum::<u64>(), d.processed);
    }

    #[test]
    fn submit_batch_is_window_invariant() {
        // Batch boundaries carry no state: feeding the same stream in
        // different batch sizes must land on identical stats.
        let accesses = stream(2048);
        let mut whole = engine(false);
        whole.submit_batch(&accesses);
        let mut pieces = engine(false);
        for chunk in accesses.chunks(13) {
            pieces.submit_batch(chunk);
        }
        assert_eq!(whole.snapshot().llc, pieces.snapshot().llc);
    }

    #[test]
    #[should_panic(expected = "no policy configured")]
    fn build_without_policy_panics() {
        let _ = EngineConfig::new(CacheConfig::llc_single()).build();
    }
}
