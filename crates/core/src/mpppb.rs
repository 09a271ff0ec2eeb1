//! Multiperspective Placement, Promotion, and Bypass (MPPPB).
//!
//! The policy consults the predictor on every LLC access (§3.5) and uses
//! the confidence sum to drive three decisions (§3.6):
//!
//! * **miss**: confidence > τ₀ → bypass; otherwise place in position πᵢ
//!   where τᵢ is the tightest exceeded threshold; below τ₃ → place MRU.
//! * **hit**: confidence > τ₄ → do not promote; otherwise promote per the
//!   default policy.
//!
//! Two default replacement policies are supported (§3.7): static MDPP
//! (tree PLRU positions, single-thread configuration) and SRRIP (RRPV
//! levels, multi-core configuration).

use std::fmt;

use mrp_cache::policies::{MdppConfig, PlruTree, RripState, RRIP_MAX};
use mrp_cache::{AccessInfo, CacheConfig, ReplacementPolicy};

use crate::context::{FeatureContext, PcHistory, SetState};
use crate::feature::Feature;
use crate::feature_sets;
use crate::predictor::MultiperspectivePredictor;

/// Number of fixed bins in the per-decision confidence histogram
/// ([`ReplacementPolicy::confidence_histogram`]).
pub const CONFIDENCE_BINS: usize = 16;

/// Maps a confidence sum to its histogram bin: the span `[-128, 127]`
/// (which covers the thresholds both paper configurations use) split
/// into [`CONFIDENCE_BINS`] equal bins, saturating at the ends. Bin 0 is
/// strongly reuse-predicted, the last bin strongly bypass-predicted.
pub fn confidence_bin(confidence: i32) -> usize {
    ((confidence.clamp(-128, 127) + 128) >> 4) as usize
}

/// Which default replacement policy backs MPPPB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefaultPolicyKind {
    /// Static minimal-disturbance placement & promotion over tree PLRU
    /// (single-thread configuration; positions are tree positions 0..16).
    Mdpp,
    /// Static RRIP (multi-core configuration; positions are RRPV values
    /// 0..=3).
    Srrip,
}

/// Full MPPPB configuration.
#[derive(Debug, Clone)]
pub struct MpppbConfig {
    /// The parameterized feature set (16 features in the paper).
    pub features: Vec<Feature>,
    /// τ₀: bypass when the miss confidence exceeds this.
    pub bypass_threshold: i32,
    /// τ₁ ≥ τ₂ ≥ τ₃: placement thresholds.
    pub place_thresholds: [i32; 3],
    /// π₁, π₂, π₃: placement positions (tree positions for MDPP, RRPVs
    /// for SRRIP), matched to the thresholds.
    pub positions: [u32; 3],
    /// τ₄: on a hit, suppress promotion above this confidence.
    pub promote_threshold: i32,
    /// Perceptron training threshold θ.
    pub training_threshold: i32,
    /// Number of sampled sets (64 per core in the paper).
    pub sampler_sets: u32,
    /// Default replacement policy.
    pub default_policy: DefaultPolicyKind,
    /// Measure-only mode: predictions are computed and the sampler
    /// trains, but bypass/placement/promotion fall back to the default
    /// policy (used for the ROC accuracy experiments, §6.3).
    pub measure_only: bool,
}

impl MpppbConfig {
    /// The single-thread configuration: suite-tuned features over static
    /// MDPP with 64 sampled sets.
    ///
    /// Features, thresholds and positions come from the `co_tune` binary,
    /// which alternates the §5.5 threshold search with §5.1 feature hill
    /// climbing on cross-validation half A (the paper's published Table 1
    /// sets are available as [`feature_sets::table_1a`]/[`table_1b`] and
    /// were developed for SPEC, not this suite — see DESIGN.md).
    ///
    /// [`table_1b`]: feature_sets::table_1b
    pub fn single_thread(llc: &CacheConfig) -> Self {
        MpppbConfig {
            features: feature_sets::suite_tuned_a(),
            bypass_threshold: 292,
            place_thresholds: [247, 185, -76],
            positions: [15, 13, 4],
            promote_threshold: 191,
            training_threshold: 18,
            sampler_sets: 64.min(llc.sets()),
            default_policy: DefaultPolicyKind::Mdpp,
            measure_only: false,
        }
    }

    /// The counterpart of [`MpppbConfig::single_thread`] tuned on
    /// cross-validation half B: [`feature_sets::suite_tuned_b`] with its
    /// own tuned parameters. It serves the `--cv` assignment of the
    /// single-thread drivers (`mpppb_cv_policy` in `mrp-experiments`),
    /// which reports half-A workloads with it (and half-B workloads with
    /// `single_thread`), so no workload is evaluated with features
    /// developed on it (§5.2). The in-sample headline
    /// (`mpppb_headline_policy`) gives it to half-B workloads instead.
    pub fn single_thread_alt(llc: &CacheConfig) -> Self {
        MpppbConfig {
            features: feature_sets::suite_tuned_b(),
            bypass_threshold: 440,
            place_thresholds: [212, -4, -246],
            positions: [15, 10, 6],
            promote_threshold: 462,
            training_threshold: 119,
            ..MpppbConfig::single_thread(llc)
        }
    }

    /// The 4-core configuration: suite-tuned features over SRRIP with 256
    /// sampled sets (§4.4 scales the sampler by the core count).
    ///
    /// The single-thread feature set transfers to the multi-programmed
    /// setting (the paper observes its ST set reaches 8.0% vs. 8.3% for
    /// the MP-specific set, §6.4); thresholds are shared with the ST
    /// configuration and the positions map to SRRIP's four RRPV levels.
    pub fn multi_core(llc: &CacheConfig) -> Self {
        MpppbConfig {
            features: feature_sets::suite_tuned_a(),
            bypass_threshold: 292,
            place_thresholds: [247, 185, -76],
            positions: [3, 2, 1],
            promote_threshold: 191,
            training_threshold: 18,
            sampler_sets: 256.min(llc.sets()),
            default_policy: DefaultPolicyKind::Srrip,
            measure_only: false,
        }
    }

    /// Replaces the feature set, keeping everything else (used by the
    /// feature search and the ablation experiments).
    pub fn with_features(mut self, features: Vec<Feature>) -> Self {
        self.features = features;
        self
    }
}

enum DefaultState {
    Mdpp { tree: PlruTree, config: MdppConfig },
    Srrip(RripState),
}

/// The MPPPB replacement policy. Implements
/// [`ReplacementPolicy`], so it plugs into any `mrp-cache` cache or
/// hierarchy.
pub struct Mpppb {
    config: MpppbConfig,
    predictor: MultiperspectivePredictor,
    histories: Vec<PcHistory>,
    set_state: SetState,
    default_state: DefaultState,
    /// Confidence computed in `should_bypass`, consumed by `on_fill` for
    /// the same access.
    pending_fill: Option<i32>,
    /// Confidence of the most recent prediction (for ROC measurement).
    last_confidence: i32,
    /// Per-decision confidence histogram ([`CONFIDENCE_BINS`] fixed
    /// bins), allocated only while tracking is enabled through
    /// [`ReplacementPolicy::set_confidence_tracking`] so the default hot
    /// path pays a single `Option` test.
    confidence_hist: Option<Box<[u64]>>,
    /// Neutral mode: predict and train, but manage the cache exactly as
    /// the default policy would (no bypass, default placement/promotion).
    /// Toggled per access by [`crate::adaptive::AdaptiveMpppb`].
    neutral: bool,
    name: String,
}

impl fmt::Debug for Mpppb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mpppb")
            .field("default_policy", &self.config.default_policy)
            .field("predictor", &self.predictor)
            .finish()
    }
}

impl Mpppb {
    /// Creates the policy for the LLC geometry `llc`.
    ///
    /// # Panics
    ///
    /// Panics if a placement position is out of range for the default
    /// policy (`>= assoc` for MDPP, `> 3` for SRRIP).
    pub fn new(config: MpppbConfig, llc: &CacheConfig) -> Self {
        let default_state = match config.default_policy {
            DefaultPolicyKind::Mdpp => {
                assert!(
                    config.positions.iter().all(|&p| p < llc.associativity()),
                    "MDPP positions must be < associativity"
                );
                DefaultState::Mdpp {
                    tree: PlruTree::new(llc.sets(), llc.associativity()),
                    config: MdppConfig::default(),
                }
            }
            DefaultPolicyKind::Srrip => {
                assert!(
                    config.positions.iter().all(|&p| p <= u32::from(RRIP_MAX)),
                    "SRRIP positions must be RRPVs 0..=3"
                );
                DefaultState::Srrip(RripState::new(llc.sets(), llc.associativity()))
            }
        };
        let predictor = MultiperspectivePredictor::new(
            config.features.clone(),
            llc.sets(),
            config.sampler_sets,
            config.training_threshold,
        );
        let name = match config.default_policy {
            DefaultPolicyKind::Mdpp => "mpppb-mdpp",
            DefaultPolicyKind::Srrip => "mpppb-srrip",
        }
        .to_string();
        Mpppb {
            config,
            predictor,
            histories: Vec::new(),
            set_state: SetState::new(llc.sets()),
            default_state,
            pending_fill: None,
            last_confidence: 0,
            confidence_hist: None,
            neutral: false,
            name,
        }
    }

    /// The confidence computed for the most recent LLC access (ROC
    /// experiments read this after each `Cache::access`).
    pub fn last_confidence(&self) -> i32 {
        self.last_confidence
    }

    /// Switches neutral mode: the predictor keeps training but cache
    /// management falls back to the plain default policy (static MDPP or
    /// SRRIP). Used per access by the set-dueling wrapper.
    pub fn set_neutral(&mut self, neutral: bool) {
        self.neutral = neutral;
    }

    /// Predictor statistics.
    pub fn predictor(&self) -> &MultiperspectivePredictor {
        &self.predictor
    }

    /// The active configuration.
    pub fn config(&self) -> &MpppbConfig {
        &self.config
    }

    fn history(&mut self, core: u8) -> &mut PcHistory {
        let core = usize::from(core);
        while self.histories.len() <= core {
            self.histories.push(PcHistory::new());
        }
        &mut self.histories[core]
    }

    /// Resolves the access's confidence through the predictor (one fused
    /// offsets + gather-sum pass, sampler training on sampled sets) and
    /// records per-set state. Returns the confidence.
    fn predict_and_train(&mut self, info: &AccessInfo, is_insert: bool) -> i32 {
        // Record the PC into this core's history first, so history entry
        // 0 is the current access (the `W = 0` feature), *at LLC access
        // granularity*: the feature sets are tuned against the
        // LLC-filtered PC stream (see DESIGN.md), and demand accesses
        // that hit in L1/L2 carry no LLC-level reuse signal. Prefetches
        // carry the fake PC and are excluded from history.
        if !info.is_prefetch {
            self.history(info.core).push(info.pc);
        }
        let empty: &[u64] = &[];
        let history = self
            .histories
            .get(usize::from(info.core))
            .map(|h| h.as_slice())
            .unwrap_or(empty);
        let ctx = FeatureContext {
            pc: info.pc,
            address: info.address,
            pc_history: history,
            is_mru: self.set_state.is_mru(info.set, info.block),
            is_insert,
            last_miss: self.set_state.last_miss(info.set),
        };
        let confidence = self.predictor.access(&ctx, info.set, info.block);
        self.set_state.record(info.set, info.block, is_insert);
        self.last_confidence = confidence;
        if let Some(hist) = self.confidence_hist.as_deref_mut() {
            hist[confidence_bin(confidence)] += 1;
        }
        confidence
    }

    /// Maps a miss confidence to a placement position (tree position or
    /// RRPV), per §3.6.
    fn placement_position(&self, confidence: i32) -> u32 {
        let [tau1, tau2, tau3] = self.config.place_thresholds;
        let [pi1, pi2, pi3] = self.config.positions;
        if confidence > tau1 {
            pi1
        } else if confidence > tau2 {
            pi2
        } else if confidence > tau3 {
            pi3
        } else {
            0 // most-recently-used position
        }
    }
}

impl ReplacementPolicy for Mpppb {
    fn name(&self) -> &str {
        &self.name
    }

    fn set_confidence_tracking(&mut self, enabled: bool) {
        self.confidence_hist = if enabled {
            Some(vec![0; CONFIDENCE_BINS].into_boxed_slice())
        } else {
            None
        };
    }

    fn confidence_histogram(&self) -> Option<Vec<u64>> {
        self.confidence_hist.as_ref().map(|h| h.to_vec())
    }

    fn on_hit(&mut self, info: &AccessInfo, way: u32) {
        let confidence = self.predict_and_train(info, false);
        if self.config.measure_only || self.neutral {
            // Behave as the un-optimized baseline (LRU-like): in
            // measure-only mode so accuracy measurement is not colored by
            // placement, and in neutral (dueling-guard) mode because LRU
            // parity is the floor the guard must provide.
            match &mut self.default_state {
                DefaultState::Mdpp { tree, .. } => tree.touch(info.set, way),
                DefaultState::Srrip(state) => state.set(info.set, way, 0),
            }
            return;
        }
        let promote = confidence <= self.config.promote_threshold;
        match &mut self.default_state {
            DefaultState::Mdpp { tree, config } => {
                if promote {
                    tree.promote_minimal(info.set, way, config.promote_position);
                }
            }
            DefaultState::Srrip(state) => {
                if promote {
                    state.set(info.set, way, 0);
                }
            }
        }
    }

    fn should_bypass(&mut self, info: &AccessInfo) -> bool {
        let confidence = self.predict_and_train(info, true);
        self.pending_fill = Some(confidence);
        if self.neutral || self.config.measure_only {
            return false;
        }
        let bypass = confidence > self.config.bypass_threshold;
        if bypass {
            self.pending_fill = None;
        }
        bypass
    }

    fn choose_victim(&mut self, info: &AccessInfo, _occupants: &[u64]) -> u32 {
        match &mut self.default_state {
            DefaultState::Mdpp { tree, .. } => tree.victim(info.set),
            DefaultState::Srrip(state) => state.victim(info.set),
        }
    }

    fn uses_victim_occupants(&self) -> bool {
        false
    }

    fn on_fill(&mut self, info: &AccessInfo, way: u32) {
        let confidence = self.pending_fill.take().unwrap_or(0);
        let position = if self.config.measure_only || self.neutral {
            // Un-optimized baseline behavior: MRU insertion under the
            // PLRU tree (LRU-like), standard long insertion under SRRIP.
            match self.config.default_policy {
                DefaultPolicyKind::Mdpp => 0,
                DefaultPolicyKind::Srrip => u32::from(RRIP_MAX - 1),
            }
        } else {
            self.placement_position(confidence)
        };
        match &mut self.default_state {
            DefaultState::Mdpp { tree, .. } => tree.set_position(info.set, way, position),
            DefaultState::Srrip(state) => state.set(info.set, way, position as u8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_cache::{AccessResult, Cache};
    use mrp_trace::MemoryAccess;

    fn llc() -> CacheConfig {
        CacheConfig::new(64 * 16 * 64, 16) // 64 sets x 16 ways
    }

    fn mpppb_cache(kind: DefaultPolicyKind) -> Cache {
        let llc = llc();
        let mut config = match kind {
            DefaultPolicyKind::Mdpp => MpppbConfig::single_thread(&llc),
            DefaultPolicyKind::Srrip => MpppbConfig::multi_core(&llc),
        };
        config.sampler_sets = 16;
        Cache::new(llc, Box::new(Mpppb::new(config, &llc)))
    }

    fn load(pc: u64, block: u64) -> MemoryAccess {
        MemoryAccess::load(pc, block * 64)
    }

    #[test]
    fn basic_hit_miss_behavior() {
        let mut c = mpppb_cache(DefaultPolicyKind::Mdpp);
        let a = load(0x400000, 5);
        assert!(c.access(&a, false).is_miss());
        assert!(c.access(&a, false).is_hit());
    }

    #[test]
    fn srrip_variant_works_too() {
        let mut c = mpppb_cache(DefaultPolicyKind::Srrip);
        let a = load(0x400000, 5);
        assert!(c.access(&a, false).is_miss());
        assert!(c.access(&a, false).is_hit());
    }

    #[test]
    fn streaming_pc_learns_to_bypass() {
        let mut c = mpppb_cache(DefaultPolicyKind::Mdpp);
        // One PC touching each block exactly once: pure stream. Drive many
        // blocks through so sampled sets train the tables.
        let mut bypassed = false;
        for i in 0..400_000u64 {
            let r = c.access(&load(0x400000, i), false);
            if r == AccessResult::Bypassed {
                bypassed = true;
            }
        }
        assert!(bypassed, "streaming blocks should eventually bypass");
        assert!(c.stats().bypasses > 0);
    }

    #[test]
    fn reused_working_set_is_not_bypassed() {
        let mut c = mpppb_cache(DefaultPolicyKind::Mdpp);
        // Working set smaller than the cache, revisited constantly.
        for round in 0..2000u64 {
            for b in 0..256u64 {
                let _ = c.access(&load(0x500000 + (b % 4) * 4, b), false);
            }
            let _ = round;
        }
        let stats = c.stats();
        let bypass_rate = stats.bypasses as f64 / stats.demand_accesses() as f64;
        assert!(
            bypass_rate < 0.01,
            "resident working set bypassed too often: {bypass_rate}"
        );
    }

    #[test]
    fn measure_only_never_bypasses() {
        let llc = llc();
        let mut config = MpppbConfig::single_thread(&llc);
        config.sampler_sets = 16;
        config.measure_only = true;
        let mut c = Cache::new(llc, Box::new(Mpppb::new(config, &llc)));
        for i in 0..100_000u64 {
            let r = c.access(&load(0x400000, i), false);
            assert_ne!(r, AccessResult::Bypassed);
        }
        assert_eq!(c.stats().bypasses, 0);
    }

    #[test]
    fn placement_position_respects_threshold_order() {
        let llc = llc();
        let config = MpppbConfig::single_thread(&llc);
        let p = Mpppb::new(config.clone(), &llc);
        assert_eq!(
            p.placement_position(config.place_thresholds[0] + 1),
            config.positions[0]
        );
        assert_eq!(
            p.placement_position(config.place_thresholds[1] + 1),
            config.positions[1]
        );
        assert_eq!(
            p.placement_position(config.place_thresholds[2] + 1),
            config.positions[2]
        );
        assert_eq!(p.placement_position(config.place_thresholds[2] - 1), 0);
    }

    #[test]
    fn scan_between_reuses_protects_hot_set_better_than_lru() {
        // The canonical MPPPB win: hot set + scan. Compare against plain
        // LRU on the same trace.
        use mrp_cache::policies::Lru;
        let llc = llc();
        let mut config = MpppbConfig::single_thread(&llc);
        config.sampler_sets = 16;
        let mut mp = Cache::new(llc, Box::new(Mpppb::new(config, &llc)));
        let mut lru = Cache::new(llc, Box::new(Lru::new(llc.sets(), llc.associativity())));

        let hot_blocks = 512u64; // half the cache
        let mut scan_cursor = 1_000_000u64;
        for round in 0..800u64 {
            for b in 0..hot_blocks {
                let a = load(0x600000, b);
                let _ = mp.access(&a, false);
                let _ = lru.access(&a, false);
            }
            // A burst of scan blocks (dead on arrival), large enough that
            // LRU thrashes the hot set out every round.
            for _ in 0..hot_blocks * 2 {
                let a = load(0x700000, scan_cursor);
                scan_cursor += 1;
                let _ = mp.access(&a, false);
                let _ = lru.access(&a, false);
            }
            let _ = round;
        }
        let mp_miss = mp.stats().demand_misses;
        let lru_miss = lru.stats().demand_misses;
        // The margin depends on the tuned default thresholds (aggressive
        // bypass would protect the whole hot set; the suite-tuned
        // defaults trade some of that for stability elsewhere).
        assert!(
            mp_miss < lru_miss * 9 / 10,
            "MPPPB ({mp_miss}) should clearly beat LRU ({lru_miss}) on scan+hot"
        );
    }

    #[test]
    fn last_confidence_updates_per_access() {
        let llc = llc();
        let mut config = MpppbConfig::single_thread(&llc);
        config.sampler_sets = 16;
        let policy = Mpppb::new(config, &llc);
        let mut c = Cache::new(llc, Box::new(policy));
        for i in 0..50_000u64 {
            let _ = c.access(&load(0x400000, i), false);
        }
        // Downcast via the known concrete policy to read confidence.
        // (Experiments keep their own handle instead; here we just check
        // the cache ran.)
        assert!(c.stats().demand_misses > 0);
    }
}
