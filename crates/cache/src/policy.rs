//! The replacement-policy interface.

use mrp_trace::{AccessKind, MemoryAccess};

use crate::config::CacheConfig;

/// Everything a policy may observe about one cache access.
///
/// Built by [`crate::Cache`] from the trace record plus the cache geometry;
/// prefetches carry the fake PC the paper prescribes ("A 'fake' PC address
/// is used for all hardware prefetches", §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessInfo {
    /// PC of the memory instruction (or the fake prefetch PC).
    pub pc: u64,
    /// Full byte address.
    pub address: u64,
    /// Block address (`address >> 6`).
    pub block: u64,
    /// Set index in this cache.
    pub set: u32,
    /// Issuing core.
    pub core: u8,
    /// Load or store.
    pub kind: AccessKind,
    /// True for hardware prefetch fills.
    pub is_prefetch: bool,
}

/// The fake PC attributed to hardware prefetches.
pub const PREFETCH_PC: u64 = 0xffff_ffff_f000;

/// One LLC-bound access announced ahead of time through
/// [`ReplacementPolicy::on_upcoming_accesses`]: PC (with
/// [`PREFETCH_PC`] substituted for prefetches), address, core, and the
/// prefetch flag. Goes with that hook (see there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpcomingAccess {
    /// PC of the instruction (or [`PREFETCH_PC`] for prefetches).
    pub pc: u64,
    /// Full byte address.
    pub address: u64,
    /// Issuing core.
    pub core: u8,
    /// Whether this will arrive as a hardware prefetch.
    pub is_prefetch: bool,
}

impl AccessInfo {
    /// Builds the info for `access` against geometry `config`.
    pub fn from_access(access: &MemoryAccess, config: &CacheConfig, is_prefetch: bool) -> Self {
        let block = access.block();
        AccessInfo {
            pc: if is_prefetch { PREFETCH_PC } else { access.pc },
            address: access.address,
            block,
            set: config.set_of(block),
            core: access.core,
            kind: access.kind,
            is_prefetch,
        }
    }
}

/// A cache replacement (and bypass) policy.
///
/// The cache drives the policy through five hooks. For every access the
/// cache first calls [`ReplacementPolicy::on_access`]; then exactly one of:
///
/// * hit — [`ReplacementPolicy::on_hit`];
/// * miss — [`ReplacementPolicy::should_bypass`]; if `false` and the set is
///   full, [`ReplacementPolicy::choose_victim`] then
///   [`ReplacementPolicy::on_evict`]; finally
///   [`ReplacementPolicy::on_fill`].
///
/// Policies are constructed for a fixed geometry; implementations keep
/// per-set recency state sized accordingly.
pub trait ReplacementPolicy {
    /// Short display name (e.g. `"lru"`, `"mpppb-mdpp"`).
    fn name(&self) -> &str;

    /// Observes every access (hit or miss), before the outcome is known.
    /// Default: no-op.
    fn on_access(&mut self, info: &AccessInfo) {
        let _ = info;
    }

    /// Observes every *core* demand access, including those that hit in
    /// levels above this cache. The paper's predictor keeps a per-core
    /// vector of feature values "updated on every memory access" (§3.4),
    /// which requires visibility beyond the filtered LLC stream. Default:
    /// no-op.
    fn on_core_access(&mut self, access: &MemoryAccess) {
        let _ = access;
    }

    /// Whether [`ReplacementPolicy::on_core_access`] does anything. Must
    /// return `true` for any policy that overrides (or forwards) the
    /// hook; replay fast paths skip the per-access call — and the access
    /// reconstruction feeding it — when this is `false`. The replay
    /// equivalence suite (`mrp-verify`) catches a stale override.
    fn uses_core_accesses(&self) -> bool {
        false
    }

    /// Announces the next LLC-bound accesses, in the order they will be
    /// presented to this policy. Advisory: a policy must produce
    /// bit-identical results whether or not it is called. Default:
    /// no-op.
    ///
    /// No front-end in the workspace calls this hook any more, and no
    /// shipped policy overrides it. It stays only because the
    /// benchmark's forwarding policy wrapper implements it, and goes in
    /// the next change that edits the benchmark.
    fn on_upcoming_accesses(&mut self, window: &[UpcomingAccess]) {
        let _ = window;
    }

    /// Whether [`ReplacementPolicy::on_upcoming_accesses`] does anything.
    /// Nothing in the workspace calls the hook, so a policy returning
    /// `true` would silently receive no windows. Goes with the hook.
    fn uses_upcoming_accesses(&self) -> bool {
        false
    }

    /// Switches per-decision confidence accounting on or off. Predictive
    /// policies that can attribute a confidence value to each decision
    /// (MPPPB, perceptron-family) may maintain a histogram when enabled;
    /// the default is a no-op, and tracking must default to *off* so the
    /// hot path pays nothing unless a serving/telemetry front-end asks.
    fn set_confidence_tracking(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// The per-decision confidence histogram accumulated since tracking
    /// was enabled ([`ReplacementPolicy::set_confidence_tracking`]), in
    /// fixed bins from strongly-reuse-predicted to strongly-bypass-
    /// predicted. `None` when the policy has no confidence notion or
    /// tracking is off.
    fn confidence_histogram(&self) -> Option<Vec<u64>> {
        None
    }

    /// The access hit in `way`.
    fn on_hit(&mut self, info: &AccessInfo, way: u32);

    /// The access missed; returning `true` skips the fill entirely
    /// (bypass). Default: never bypass.
    fn should_bypass(&mut self, info: &AccessInfo) -> bool {
        let _ = info;
        false
    }

    /// Chooses the victim way for a fill into a full set. `occupants[w]` is
    /// the block currently in way `w`; every way is valid when this is
    /// called. When [`ReplacementPolicy::uses_victim_occupants`] is
    /// `false`, the cache may pass an empty slice instead.
    fn choose_victim(&mut self, info: &AccessInfo, occupants: &[u64]) -> u32;

    /// Whether [`ReplacementPolicy::choose_victim`] reads its `occupants`
    /// argument. Policies that pick victims purely from their own state
    /// (recency trees, RRPV arrays, predictor metadata) return `false`
    /// so the cache can skip snapshotting the set's tags on every miss —
    /// a measurable saving on the per-access serving path. Must be
    /// constant for the lifetime of the policy. Default: `true`
    /// (conservative).
    fn uses_victim_occupants(&self) -> bool {
        true
    }

    /// `block` is being evicted from (`set`, `way`). Default: no-op.
    fn on_evict(&mut self, set: u32, way: u32, block: u64) {
        let _ = (set, way, block);
    }

    /// The missing block was filled into `way`.
    fn on_fill(&mut self, info: &AccessInfo, way: u32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_info_uses_fake_pc_for_prefetches() {
        let c = CacheConfig::l1d();
        let a = MemoryAccess::load(0x400100, 0x8040);
        let demand = AccessInfo::from_access(&a, &c, false);
        let prefetch = AccessInfo::from_access(&a, &c, true);
        assert_eq!(demand.pc, 0x400100);
        assert_eq!(prefetch.pc, PREFETCH_PC);
        assert_eq!(demand.block, prefetch.block);
    }

    #[test]
    fn access_info_derives_set_from_geometry() {
        let c = CacheConfig::llc_single();
        let a = MemoryAccess::load(1, 0x1_0000);
        let info = AccessInfo::from_access(&a, &c, false);
        assert_eq!(info.set, c.set_of(a.block()));
    }
}
