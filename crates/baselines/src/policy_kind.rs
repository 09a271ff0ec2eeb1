//! The policy registry shared by experiments, verification and serving.
//!
//! [`PolicyKind`] is the one list of the LLC policies the workspace
//! compares, and the one place a policy name (as typed on a command
//! line) turns into a constructed [`ReplacementPolicy`] for a given LLC
//! geometry. It lives here — below `mrp-experiments`, `mrp-verify` and
//! `mrp-serve` — so the batch drivers, the differential verifier and the
//! serving fleet all build policies through the same factory, directly
//! or via [`PolicyKind::engine`] and the `PredictionEngine` facade.

use mrp_cache::policies::{Drrip, Lru, Mdpp, MdppConfig, RandomPolicy, Srrip, TreePlru};
use mrp_cache::{CacheConfig, ReplacementPolicy};
use mrp_core::mpppb::{Mpppb, MpppbConfig};
use mrp_core::{AdaptiveMpppb, EngineConfig};

use crate::{Hawkeye, PerceptronPolicy, Sdbp, Ship};

/// The LLC management policies the experiments compare; [`PolicyKind::ALL`]
/// lists every one.
///
/// `Min` is intentionally absent: Belady MIN needs a recorded stream and
/// is constructed by the experiment runner via its two-pass path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// True LRU: the normalization baseline.
    Lru,
    /// Random replacement (sanity floor).
    Random,
    /// Tree-based pseudo-LRU.
    TreePlru,
    /// Static RRIP.
    Srrip,
    /// Dynamic RRIP with set dueling.
    Drrip,
    /// Static MDPP.
    Mdpp,
    /// SHiP-PC over SRRIP.
    Ship,
    /// Sampling dead block prediction.
    Sdbp,
    /// Perceptron reuse prediction.
    Perceptron,
    /// MPPPB over static MDPP (single-thread configuration).
    MpppbSingle,
    /// MPPPB over SRRIP (multi-core configuration).
    MpppbMulti,
    /// MPPPB with set-dueled bypass (the §7 future-work extension).
    MpppbAdaptive,
    /// Hawkeye: OPTgen-trained PC classifier.
    Hawkeye,
}

impl PolicyKind {
    /// Every registered policy, in the order `verify` checks and reports
    /// them.
    pub const ALL: [PolicyKind; 13] = [
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::TreePlru,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Mdpp,
        PolicyKind::Ship,
        PolicyKind::Sdbp,
        PolicyKind::Perceptron,
        PolicyKind::MpppbSingle,
        PolicyKind::MpppbMulti,
        PolicyKind::MpppbAdaptive,
        PolicyKind::Hawkeye,
    ];

    /// The command-line name (`verify --policies`, `serve --policy`),
    /// unique per kind.
    pub fn key(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Random => "random",
            PolicyKind::TreePlru => "plru",
            PolicyKind::Srrip => "srrip",
            PolicyKind::Drrip => "drrip",
            PolicyKind::Mdpp => "mdpp",
            PolicyKind::Ship => "ship",
            PolicyKind::Sdbp => "sdbp",
            PolicyKind::Perceptron => "perceptron",
            PolicyKind::MpppbSingle => "mpppb",
            PolicyKind::MpppbMulti => "mpppb-srrip",
            PolicyKind::MpppbAdaptive => "mpppb-adaptive",
            PolicyKind::Hawkeye => "hawkeye",
        }
    }

    /// Display name matching the paper's terminology (both MPPPB
    /// configurations read "MPPPB").
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Random => "Random",
            PolicyKind::TreePlru => "TreePLRU",
            PolicyKind::Srrip => "SRRIP",
            PolicyKind::Drrip => "DRRIP",
            PolicyKind::Mdpp => "MDPP",
            PolicyKind::Ship => "SHiP",
            PolicyKind::Sdbp => "SDBP",
            PolicyKind::Perceptron => "Perceptron",
            PolicyKind::MpppbSingle => "MPPPB",
            PolicyKind::MpppbMulti => "MPPPB",
            PolicyKind::MpppbAdaptive => "MPPPB-A",
            PolicyKind::Hawkeye => "Hawkeye",
        }
    }

    /// The kind whose [`PolicyKind::key`] is `name`, ignoring ASCII case.
    pub fn from_name(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL
            .into_iter()
            .find(|kind| kind.key().eq_ignore_ascii_case(name))
    }

    /// Builds the policy for an LLC geometry.
    ///
    /// The paper equalizes hardware budgets (§4.4): Perceptron gets extra
    /// sampler sets, and the 8MB multi-core LLC scales each predictor's
    /// sampler by 4x.
    pub fn build(&self, llc: &CacheConfig) -> Box<dyn ReplacementPolicy + Send> {
        // 64 sampled sets per 2MB of capacity, as the paper scales.
        let scale = (llc.size_bytes() / (2 * 1024 * 1024)).max(1) as u32;
        match self {
            PolicyKind::Lru => Box::new(Lru::new(llc.sets(), llc.associativity())),
            PolicyKind::Random => Box::new(RandomPolicy::new(llc.associativity(), 0x5eed)),
            PolicyKind::TreePlru => Box::new(TreePlru::new(llc.sets(), llc.associativity())),
            PolicyKind::Srrip => Box::new(Srrip::new(llc.sets(), llc.associativity())),
            PolicyKind::Drrip => Box::new(Drrip::new(llc.sets(), llc.associativity(), 0x5eed)),
            PolicyKind::Mdpp => Box::new(Mdpp::new(
                llc.sets(),
                llc.associativity(),
                MdppConfig::default(),
            )),
            PolicyKind::Ship => Box::new(Ship::new(llc)),
            PolicyKind::Sdbp => Box::new(Sdbp::new(llc, (64 * scale).min(llc.sets()))),
            PolicyKind::Perceptron => {
                Box::new(PerceptronPolicy::new(llc, (160 * scale).min(llc.sets())))
            }
            PolicyKind::MpppbSingle => {
                let mut config = MpppbConfig::single_thread(llc);
                config.sampler_sets = (64 * scale).min(llc.sets());
                Box::new(Mpppb::new(config, llc))
            }
            PolicyKind::MpppbMulti => {
                // The shared-LLC setting amplifies misprediction cost (a
                // bypassed block hurts its owner core while the predictor
                // trains on the interleaved stream), so the multi-core
                // variant runs behind the set-dueling guard; its neutral
                // fallback is plain SRRIP, the paper's MP default (§3.7).
                let mut config = MpppbConfig::multi_core(llc);
                config.sampler_sets = (64 * scale).min(llc.sets());
                Box::new(AdaptiveMpppb::new(config, llc))
            }
            PolicyKind::MpppbAdaptive => {
                let mut config = MpppbConfig::single_thread(llc);
                config.sampler_sets = (64 * scale).min(llc.sets());
                Box::new(AdaptiveMpppb::new(config, llc))
            }
            PolicyKind::Hawkeye => Box::new(Hawkeye::new(llc, (64 * scale).min(llc.sets()))),
        }
    }

    /// Starts an [`EngineConfig`] for this policy over geometry `llc` —
    /// the facade route every driver and serving shard constructs
    /// through. The config comes pre-labelled with the policy name;
    /// callers refine (options, label, telemetry) and `build()`.
    pub fn engine(&self, llc: CacheConfig) -> EngineConfig {
        let kind = *self;
        EngineConfig::new(llc)
            .policy_with(move |geometry| kind.build(geometry))
            .label(kind.name())
    }

    /// Same as `PolicyKind::Hawkeye.build(llc)`.
    ///
    /// Nothing in the workspace calls this any more. It stays only
    /// because the benchmark's driver (`perfbench/src/drive.rs`) calls
    /// it, and goes in the next change that edits the benchmark.
    pub fn hawkeye(llc: &CacheConfig) -> Box<dyn ReplacementPolicy + Send> {
        PolicyKind::Hawkeye.build(llc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_builds_for_both_llc_geometries() {
        for llc in [CacheConfig::llc_single(), CacheConfig::llc_multi()] {
            for kind in PolicyKind::ALL {
                let p = kind.build(&llc);
                assert!(!p.name().is_empty());
            }
        }
        let h = PolicyKind::Hawkeye.build(&CacheConfig::llc_single());
        assert_eq!(h.name(), "hawkeye");
    }

    #[test]
    fn no_policy_subscribes_to_upcoming_access_windows() {
        // No front-end announces windows any more, so a policy that
        // subscribed would silently receive none and run a path nothing
        // exercises.
        let llc = CacheConfig::llc_single();
        for kind in PolicyKind::ALL {
            let p = kind.build(&llc);
            assert!(!p.uses_upcoming_accesses(), "{} subscribes", p.name());
        }
    }

    #[test]
    fn registry_lists_thirteen_distinct_keys() {
        let keys = PolicyKind::ALL.map(|kind| kind.key());
        for (i, key) in keys.iter().enumerate() {
            assert!(!keys[..i].contains(key), "{key} listed twice");
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_name(kind.key()), Some(kind));
            let upper = kind.key().to_ascii_uppercase();
            assert_eq!(PolicyKind::from_name(&upper), Some(kind));
        }
        for unknown in ["treeplru", "mpppb-mdpp", "bogus"] {
            assert_eq!(PolicyKind::from_name(unknown), None, "{unknown}");
        }
    }

    #[test]
    fn engine_convenience_builds_a_labelled_engine() {
        let llc = CacheConfig::llc_single();
        let mut engine = PolicyKind::Srrip.engine(llc).build();
        assert_eq!(engine.label(), "SRRIP");
        assert_eq!(engine.cache().config(), &llc);
        let d = engine.submit_batch(&[mrp_trace::MemoryAccess::load(0x400000, 0x1000)]);
        assert_eq!(d.processed, 1);
        assert_eq!(d.misses, 1);
    }
}
