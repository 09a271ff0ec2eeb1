//! Three-level cache hierarchy with a stream prefetcher.

use std::fmt;

use mrp_trace::{MemoryAccess, ServiceLevel};

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::policies::Lru;
use crate::policy::ReplacementPolicy;
use crate::prefetch::StreamPrefetcher;
use crate::replay::LlcRecording;
use crate::stats::HierarchyStats;

/// Access latencies (cycles) per level, matching the paper's parameters
/// where given (DRAM: 200 cycles, §4.1). L1/L2/LLC latencies follow
/// typical contemporaneous designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelLatencies {
    /// L1 data hit latency.
    pub l1: u64,
    /// Additional cycles for an L2 hit.
    pub l2: u64,
    /// Additional cycles for an LLC hit.
    pub llc: u64,
    /// Additional cycles for a DRAM access.
    pub dram: u64,
}

impl Default for LevelLatencies {
    fn default() -> Self {
        LevelLatencies {
            l1: 4,
            l2: 12,
            llc: 38,
            dram: 200,
        }
    }
}

/// Configuration of the full hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Last-level cache geometry.
    pub llc: CacheConfig,
    /// Latencies per level.
    pub latencies: LevelLatencies,
    /// Whether the stream prefetcher is active.
    pub prefetch: bool,
}

impl HierarchyConfig {
    /// The paper's single-thread configuration: 32KB/8w L1D, 256KB/8w L2,
    /// 2MB/16w LLC, prefetching on (§6.2 "Prefetching is enabled").
    pub fn single_thread() -> Self {
        HierarchyConfig {
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            llc: CacheConfig::llc_single(),
            latencies: LevelLatencies::default(),
            prefetch: true,
        }
    }

    /// Per-core configuration for the 4-core experiments (8MB shared LLC).
    pub fn multi_core() -> Self {
        HierarchyConfig {
            llc: CacheConfig::llc_multi(),
            ..HierarchyConfig::single_thread()
        }
    }
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServicedBy {
    /// Hit in the L1 data cache.
    L1,
    /// Hit in the unified L2.
    L2,
    /// Hit in the last-level cache.
    Llc,
    /// Satisfied from DRAM.
    Dram,
}

/// Result of one demand access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyAccess {
    /// Level that satisfied the access.
    pub serviced_by: ServicedBy,
    /// Total latency in cycles.
    pub latency: u64,
}

impl HierarchyAccess {
    /// An access serviced by `level`, charged every latency down to it.
    fn new(level: ServicedBy, lat: &LevelLatencies) -> Self {
        let latency = match level {
            ServicedBy::L1 => lat.l1,
            ServicedBy::L2 => lat.l1 + lat.l2,
            ServicedBy::Llc => lat.l1 + lat.l2 + lat.llc,
            ServicedBy::Dram => lat.l1 + lat.l2 + lat.llc + lat.dram,
        };
        HierarchyAccess {
            serviced_by: level,
            latency,
        }
    }
}

/// A private L1D + L2 in front of an LLC with a pluggable policy.
///
/// For single-core runs this owns all three levels. For multi-core runs,
/// use [`CorePrivate`] per core against a shared [`Cache`] LLC (see
/// `mrp-cpu`).
pub struct Hierarchy {
    private: CorePrivate,
    llc: Cache,
    latencies: LevelLatencies,
    /// Scratch: deferred LLC operations of the current access group.
    batch_ops: Vec<LlcOp>,
}

impl fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hierarchy")
            .field("llc_policy", &self.llc.policy().name())
            .finish()
    }
}

impl Hierarchy {
    /// Builds the hierarchy; `llc_policy` manages the last level.
    pub fn new(config: HierarchyConfig, llc_policy: Box<dyn ReplacementPolicy + Send>) -> Self {
        Hierarchy::with_llc(config, Cache::new(config.llc, llc_policy))
    }

    /// Builds the hierarchy around an already-constructed LLC — the
    /// facade route (`PredictionEngine::into_llc`), which keeps policy
    /// construction in one place while the hierarchy drives the cache.
    ///
    /// # Panics
    ///
    /// Panics if `llc`'s geometry differs from `config.llc`.
    pub fn with_llc(config: HierarchyConfig, llc: Cache) -> Self {
        assert_eq!(
            llc.config(),
            &config.llc,
            "LLC geometry must match the hierarchy config"
        );
        Hierarchy {
            private: CorePrivate::new(&config),
            llc,
            latencies: config.latencies,
            batch_ops: Vec::new(),
        }
    }

    /// Simulates one demand access; returns where it was serviced and the
    /// latency charged.
    pub fn access(&mut self, access: &MemoryAccess) -> HierarchyAccess {
        self.private
            .access_with_llc(access, &mut self.llc, &self.latencies)
    }

    /// Simulates a group of consecutive demand accesses, batching the
    /// LLC work. Bit-identical to calling [`Hierarchy::access`] once per
    /// access (results land in `out` in access order):
    ///
    /// 1. the private levels run for the whole group first — valid
    ///    because L1/L2/prefetcher never consult the LLC (the invariant
    ///    record/replay is built on) — queueing every LLC operation in
    ///    the exact order the fused path would execute it;
    /// 2. the queued LLC operations drain in order, resolving each
    ///    LLC-bound access's hit/miss and hence its latency.
    pub fn access_batch(&mut self, accesses: &[MemoryAccess], out: &mut Vec<HierarchyAccess>) {
        out.clear();
        self.batch_ops.clear();
        let lat = self.latencies;
        // Phase 1: private levels, deferring all LLC operations.
        let mut deferred = Deferred {
            llc: &self.llc,
            // Policies that ignore `on_core_access` (the default) get no
            // `CoreAccess` ops queued at all — they dominate the op
            // stream (every trace access queues one, vs. ~1 in 6 reaching
            // the LLC), and draining them into a no-op hook is pure
            // overhead.
            core_hook: self.llc.policy().uses_core_accesses(),
            ops: &mut self.batch_ops,
        };
        for (slot, access) in accesses.iter().enumerate() {
            out.push(match self.private.step(access, &mut deferred) {
                Some(level) => HierarchyAccess::new(level, &lat),
                // LLC-bound: placeholder, overwritten by the drain.
                None => {
                    deferred.ops.push(LlcOp::Demand(slot as u32, *access));
                    HierarchyAccess::new(ServicedBy::Dram, &lat)
                }
            });
        }
        // Phase 2: drain the LLC operations in fused order.
        for op in &self.batch_ops {
            match op {
                LlcOp::CoreAccess(a) => self.llc.core_access(a),
                LlcOp::PrefetchFill(pf) => self.llc.prefetch_fill(pf),
                LlcOp::Demand(slot, a) => {
                    out[*slot as usize] = HierarchyAccess::new(llc_demand(&mut self.llc, a), &lat);
                }
            }
        }
    }

    /// Statistics, combining the private levels and the LLC.
    pub fn stats(&self) -> HierarchyStats {
        let mut stats = self.private.stats();
        stats.llc = *self.llc.stats();
        stats
    }

    /// The LLC (for policy introspection in experiments).
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// Mutable LLC access.
    pub fn llc_mut(&mut self) -> &mut Cache {
        &mut self.llc
    }
}

/// Demand accesses a prefetch fill stays "in flight" before becoming
/// visible. Models the DRAM round trip a prefetch needs: without it, a
/// zero-latency prefetcher perfectly covers any stream, which no real
/// memory system does.
const PREFETCH_FILL_DELAY_ACCESSES: u64 = 6;

/// Where the LLC-bound operations of one private-level step
/// ([`CorePrivate::step`]) go: the live LLC, the deferred-op queue of a
/// grouped drain, or a recording. The step calls them in the order a
/// live LLC observes them.
pub(crate) trait LlcSink {
    /// The demand access, in `on_core_access` position (before any of
    /// its prefetch drains or its own LLC access).
    fn core_access(&mut self, access: &MemoryAccess);
    /// A prefetch fill whose delay elapsed and which missed the L2.
    fn prefetch_fill(&mut self, pf: &MemoryAccess);
    /// The demand access missed L1 and may reach the LLC: a hint to
    /// start pulling its tag row in while the L2 probe runs.
    fn l1_miss(&mut self, block: u64);
}

impl LlcSink for Cache {
    fn core_access(&mut self, access: &MemoryAccess) {
        self.policy_mut().on_core_access(access);
    }

    fn prefetch_fill(&mut self, pf: &MemoryAccess) {
        let _ = self.access(pf, true);
    }

    fn l1_miss(&mut self, block: u64) {
        self.prefetch_block(block);
    }
}

/// The demand LLC access of an access the private levels did not
/// service: where it was serviced.
fn llc_demand(llc: &mut Cache, access: &MemoryAccess) -> ServicedBy {
    if llc.access(access, false).is_hit() {
        ServicedBy::Llc
    } else {
        ServicedBy::Dram
    }
}

/// One deferred LLC operation, queued by the private-level phase of a
/// grouped access drain ([`Hierarchy::access_batch`]) and replayed
/// against the LLC in the exact order the fused path would execute it.
enum LlcOp {
    /// `on_core_access` position of a demand access.
    CoreAccess(MemoryAccess),
    /// A prefetch fill whose L2 probe missed.
    PrefetchFill(MemoryAccess),
    /// The demand LLC access of group slot `.0`.
    Demand(u32, MemoryAccess),
}

/// The sink of [`Hierarchy::access_batch`]'s private-level phase: queues
/// LLC operations instead of executing them. When `core_hook` is false
/// the LLC policy ignores `on_core_access`, so the `CoreAccess` op is
/// elided instead of queued and drained into a no-op.
struct Deferred<'a> {
    llc: &'a Cache,
    core_hook: bool,
    ops: &'a mut Vec<LlcOp>,
}

impl LlcSink for Deferred<'_> {
    fn core_access(&mut self, access: &MemoryAccess) {
        if self.core_hook {
            self.ops.push(LlcOp::CoreAccess(*access));
        }
    }

    fn prefetch_fill(&mut self, pf: &MemoryAccess) {
        self.ops.push(LlcOp::PrefetchFill(*pf));
    }

    fn l1_miss(&mut self, block: u64) {
        self.llc.prefetch_block(block);
    }
}

/// The per-core private levels (L1D, L2, prefetcher), decoupled from the
/// LLC so four cores can share one. L1D and L2 are always LRU, so they
/// are [`Cache<Lru>`] and every probe inlines the policy.
pub struct CorePrivate {
    l1d: Cache<Lru>,
    l2: Cache<Lru>,
    prefetcher: Option<StreamPrefetcher>,
    /// Prefetch fills waiting out their memory latency: (due, request).
    in_flight: std::collections::VecDeque<(u64, MemoryAccess)>,
    accesses: u64,
    instructions: u64,
    prefetches_issued: u64,
}

impl fmt::Debug for CorePrivate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CorePrivate")
            .field("instructions", &self.instructions)
            .finish()
    }
}

impl CorePrivate {
    /// Builds the private levels from `config` (LLC geometry ignored).
    pub fn new(config: &HierarchyConfig) -> Self {
        let lru = |c: CacheConfig| Cache::with_policy(c, Lru::new(c.sets(), c.associativity()));
        CorePrivate {
            l1d: lru(config.l1d),
            l2: lru(config.l2),
            prefetcher: config.prefetch.then(StreamPrefetcher::new),
            in_flight: std::collections::VecDeque::new(),
            accesses: 0,
            instructions: 0,
            prefetches_issued: 0,
        }
    }

    /// L1/L2 statistics plus instruction and prefetch accounting (the
    /// `llc` field is left zeroed; the caller owns the LLC).
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            llc: Default::default(),
            instructions: self.instructions,
            prefetches_issued: self.prefetches_issued,
        }
    }

    /// Retired instructions attributed to this core's accesses.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Simulates one demand access against these private levels backed by
    /// `llc`.
    pub fn access_with_llc(
        &mut self,
        access: &MemoryAccess,
        llc: &mut Cache,
        latencies: &LevelLatencies,
    ) -> HierarchyAccess {
        let level = self
            .step(access, llc)
            .unwrap_or_else(|| llc_demand(llc, access));
        HierarchyAccess::new(level, latencies)
    }

    /// Simulates one demand access against the private levels with *no*
    /// LLC, logging into `recording` every event an LLC would observe.
    ///
    /// The private levels never consult the LLC, so the logged stream is
    /// exactly what any LLC policy at any geometry would see: the demand
    /// access (in `on_core_access` position, its servicing level patched
    /// once the L1/L2 probes resolve), then the prefetch fills whose
    /// delay elapsed and which missed the L2.
    pub fn access_recorded(&mut self, access: &MemoryAccess, recording: &mut LlcRecording) {
        let event = recording.len();
        let level = match self.step(access, recording) {
            Some(ServicedBy::L1) => ServiceLevel::L1,
            Some(_) => ServiceLevel::L2,
            None => ServiceLevel::Llc,
        };
        recording.set_level(event, level);
    }

    /// The private-level step every front-end shares: fills the due
    /// prefetches into L2, probes L1, trains the prefetcher on an L1
    /// miss, then probes L2. Every LLC-bound operation goes to `llc`, in
    /// live-LLC order. Returns the servicing level when the access
    /// resolves privately (L1/L2 hit), `None` when its demand access
    /// goes on to the LLC — which the caller performs.
    fn step(&mut self, access: &MemoryAccess, llc: &mut impl LlcSink) -> Option<ServicedBy> {
        self.instructions += access.instructions();
        self.accesses += 1;
        llc.core_access(access);

        // Complete prefetches whose memory latency has elapsed: fill them
        // into L2 + LLC (not L1, as a stream prefetcher typically fills
        // beyond the core cache).
        while let Some(&(due, pf)) = self.in_flight.front() {
            if due > self.accesses {
                break;
            }
            self.in_flight.pop_front();
            if self.l2.access(&pf, true).is_miss() {
                llc.prefetch_fill(&pf);
            }
        }

        if self.l1d.access(access, false).is_hit() {
            return Some(ServicedBy::L1);
        }

        // Train the prefetcher on the L1 miss stream; issued requests
        // spend PREFETCH_FILL_DELAY_ACCESSES in flight before filling.
        if let Some(prefetcher) = &mut self.prefetcher {
            let requests = prefetcher.on_l1_miss(access.block());
            self.prefetches_issued += requests.len() as u64;
            for &block in requests.iter() {
                let pf = MemoryAccess {
                    address: block * mrp_trace::BLOCK_BYTES,
                    ..*access
                };
                self.in_flight
                    .push_back((self.accesses + PREFETCH_FILL_DELAY_ACCESSES, pf));
            }
        }

        llc.l1_miss(access.block());

        if self.l2.access(access, false).is_hit() {
            return Some(ServicedBy::L2);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(prefetch: bool) -> Hierarchy {
        let mut config = HierarchyConfig::single_thread();
        config.prefetch = prefetch;
        let policy = Lru::new(config.llc.sets(), config.llc.associativity());
        Hierarchy::new(config, Box::new(policy))
    }

    fn load(block: u64) -> MemoryAccess {
        MemoryAccess::load(0x400000, block * 64)
    }

    #[test]
    fn cold_access_goes_to_dram_then_l1_hits() {
        let mut h = hierarchy(false);
        let first = h.access(&load(42));
        assert_eq!(first.serviced_by, ServicedBy::Dram);
        assert_eq!(first.latency, 4 + 12 + 38 + 200);
        let second = h.access(&load(42));
        assert_eq!(second.serviced_by, ServicedBy::L1);
    }

    #[test]
    fn levels_fill_on_miss_path() {
        let mut h = hierarchy(false);
        h.access(&load(7));
        // Immediately re-accessing hits L1 (all levels filled).
        let r = h.access(&load(7));
        assert_eq!(r.serviced_by, ServicedBy::L1);
        assert_eq!(r.latency, 4);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = hierarchy(false);
        h.access(&load(0));
        // Evict block 0 from L1 (64 sets x 8 ways => 512 blocks): stream
        // enough same-set blocks through L1.
        for i in 1..=8u64 {
            h.access(&load(i * 64)); // same L1 set as block 0
        }
        let r = h.access(&load(0));
        assert_eq!(r.serviced_by, ServicedBy::L2);
    }

    #[test]
    fn instruction_counting_accumulates() {
        let mut h = hierarchy(false);
        let a = load(1);
        h.access(&a);
        h.access(&a);
        assert_eq!(h.stats().instructions, 2 * a.instructions());
    }

    #[test]
    fn sequential_stream_triggers_prefetches_that_hit() {
        let mut with = hierarchy(true);
        let mut without = hierarchy(false);
        let mut latency_with = 0u64;
        let mut latency_without = 0u64;
        for b in 0..4096u64 {
            latency_with += with.access(&load(b)).latency;
            latency_without += without.access(&load(b)).latency;
        }
        let s = with.stats();
        assert!(
            s.prefetches_issued > 1000,
            "prefetches: {}",
            s.prefetches_issued
        );
        assert!(
            latency_with < latency_without,
            "prefetching should reduce stream latency ({latency_with} vs {latency_without})"
        );
    }

    #[test]
    fn access_batch_is_bit_identical_to_sequential() {
        use crate::policies::Srrip;
        // Mixed stream (reuse + streaming) with prefetching on, so the
        // deferred path sees fills, L1/L2 hits, LLC hits, and misses.
        for group_len in [1usize, 3, 8, crate::HIERARCHY_BATCH] {
            let mut config = HierarchyConfig::single_thread();
            config.prefetch = true;
            let mk = |config: &HierarchyConfig| {
                Box::new(Srrip::new(config.llc.sets(), config.llc.associativity()))
            };
            let mut fused = Hierarchy::new(config, mk(&config));
            let mut batched = Hierarchy::new(config, mk(&config));
            let mut x = 0x9e37_79b9u64;
            let accesses: Vec<MemoryAccess> = (0..30_000u64)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let block = match x % 3 {
                        0 => (x >> 33) % 700,
                        1 => i, // stream
                        _ => (x >> 40) % 40_000,
                    };
                    load(block)
                })
                .collect();
            let mut out = Vec::new();
            for group in accesses.chunks(group_len) {
                batched.access_batch(group, &mut out);
                for (a, b) in group.iter().zip(&out) {
                    assert_eq!(fused.access(a), *b, "group_len={group_len}");
                }
            }
            assert_eq!(fused.stats(), batched.stats(), "group_len={group_len}");
        }
    }

    #[test]
    fn stats_combine_all_levels() {
        let mut h = hierarchy(false);
        for b in 0..100u64 {
            h.access(&load(b));
        }
        let s = h.stats();
        assert_eq!(s.l1d.demand_misses, 100);
        assert_eq!(s.l2.demand_misses, 100);
        assert_eq!(s.llc.demand_misses, 100);
        assert!(s.llc_mpki() > 0.0);
    }
}
