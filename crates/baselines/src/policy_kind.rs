//! The named policy registry shared by experiments and serving.
//!
//! [`PolicyKind`] is the one place a policy name (as typed on a command
//! line or listed in a job spec) turns into a constructed
//! [`ReplacementPolicy`] for a given LLC geometry. It lives here — below
//! `mrp-experiments` and `mrp-serve` — so both the batch drivers and the
//! serving fleet build policies through the same factory, via
//! [`PolicyKind::engine`] and the `PredictionEngine` facade.

use mrp_cache::policies::{Drrip, Lru, Mdpp, MdppConfig, RandomPolicy, Srrip, TreePlru};
use mrp_cache::{CacheConfig, ReplacementPolicy};
use mrp_core::mpppb::{Mpppb, MpppbConfig};
use mrp_core::{AdaptiveMpppb, EngineConfig};

use crate::{Hawkeye, PerceptronPolicy, Sdbp, Ship};

/// The LLC management policies the experiments compare.
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
}

impl PolicyKind {
    /// Display name matching the paper's terminology.
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
        }
    }

    /// Parses a name as used on experiment command lines.
    pub fn from_name(name: &str) -> Option<PolicyKind> {
        Some(match name.to_ascii_lowercase().as_str() {
            "lru" => PolicyKind::Lru,
            "random" => PolicyKind::Random,
            "treeplru" | "plru" => PolicyKind::TreePlru,
            "srrip" => PolicyKind::Srrip,
            "drrip" => PolicyKind::Drrip,
            "mdpp" => PolicyKind::Mdpp,
            "ship" => PolicyKind::Ship,
            "sdbp" => PolicyKind::Sdbp,
            "perceptron" => PolicyKind::Perceptron,
            "mpppb" | "mpppb-mdpp" => PolicyKind::MpppbSingle,
            "mpppb-srrip" => PolicyKind::MpppbMulti,
            "mpppb-adaptive" => PolicyKind::MpppbAdaptive,
            _ => return None,
        })
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

    /// Builds Hawkeye (separate because it shares the name scheme).
    pub fn hawkeye(llc: &CacheConfig) -> Box<dyn ReplacementPolicy + Send> {
        let scale = (llc.size_bytes() / (2 * 1024 * 1024)).max(1) as u32;
        Box::new(Hawkeye::new(llc, (64 * scale).min(llc.sets())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_KINDS: [PolicyKind; 12] = [
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
    ];

    #[test]
    fn every_policy_builds_for_both_llc_geometries() {
        for llc in [CacheConfig::llc_single(), CacheConfig::llc_multi()] {
            for kind in ALL_KINDS {
                let p = kind.build(&llc);
                assert!(!p.name().is_empty());
            }
            let h = PolicyKind::hawkeye(&llc);
            assert_eq!(h.name(), "hawkeye");
        }
    }

    #[test]
    fn no_policy_subscribes_to_upcoming_access_windows() {
        // No front-end announces windows any more, so a policy that
        // subscribed would silently receive none and run a path nothing
        // exercises.
        let llc = CacheConfig::llc_single();
        let policies = ALL_KINDS
            .iter()
            .map(|kind| kind.build(&llc))
            .chain([PolicyKind::hawkeye(&llc)]);
        for p in policies {
            assert!(!p.uses_upcoming_accesses(), "{} subscribes", p.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for (name, kind) in [
            ("lru", PolicyKind::Lru),
            ("mpppb", PolicyKind::MpppbSingle),
            ("perceptron", PolicyKind::Perceptron),
            ("SRRIP", PolicyKind::Srrip),
        ] {
            assert_eq!(PolicyKind::from_name(name), Some(kind));
        }
        assert_eq!(PolicyKind::from_name("bogus"), None);
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
