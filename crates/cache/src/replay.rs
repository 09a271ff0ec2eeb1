//! Record-once / replay-many LLC streams.
//!
//! The stream of accesses reaching the LLC depends only on the trace and
//! the levels above it (L1D, L2, stream prefetcher) — never on the LLC
//! policy *or* geometry, because the private levels neither consult the
//! LLC nor observe its contents. [`LlcRecording`] exploits this: it
//! drives one pass of a workload through the private levels **with no
//! LLC at all**, logging every event an LLC (and the timing model) could
//! observe:
//!
//! * every demand access, tagged with the level that serviced it
//!   ([`ServiceLevel`]), carrying its full CPU metadata
//!   (`non_memory_before`, `dependent`) so IPC can be reconstructed;
//! * every prefetch fill that missed the L2 and would therefore reach
//!   the LLC.
//!
//! The recording then replays into any [`ReplacementPolicy`] at any LLC
//! geometry: [`LlcRecording::replay_llc`] walks only the LLC-bound
//! events (the MPKI-only fast path used by `mrp-search`), while
//! `mrp-cpu`'s full replay walks all events through the core timing
//! model for bit-identical MPKI *and* IPC versus full simulation.
//!
//! Recording is single-threaded and lock-free: events append to plain
//! `Vec`s owned by the recording (no `Arc<Mutex<…>>` side channels).
//! Recordings live in process memory only; there is no on-disk form.

use mrp_trace::{AccessKind, MemoryAccess, ServiceLevel};

use crate::cache::Cache;
use crate::hierarchy::{CorePrivate, HierarchyConfig, LlcSink};
use crate::stats::{CacheStats, HierarchyStats};

// Layout of a recorded event's `flags` byte.
/// The access is a store.
const FLAG_STORE: u8 = 1 << 0;
/// The access's address depends on the previous access.
const FLAG_DEPENDENT: u8 = 1 << 1;
/// The event is a hardware prefetch fill.
const FLAG_PREFETCH: u8 = 1 << 2;
/// Shift of the two servicing-level bits ([`ServiceLevel::encode`]).
const LEVEL_SHIFT: u8 = 3;
/// Mask of the two servicing-level bits.
const LEVEL_MASK: u8 = 0b11 << LEVEL_SHIFT;

/// Snapshot of the recorded private-level state at a window edge
/// (warmup/measure boundary or end of recording).
///
/// L1/L2 counters and prefetch accounting cannot be reconstructed from
/// the event log (e.g. L2 prefetch hits never produce an event), so the
/// recording carries these snapshots; replay diffs them to rebuild the
/// measure-window [`HierarchyStats`] exactly as full simulation would.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecordedWindow {
    /// L1 data cache counters at the snapshot point.
    pub l1d: CacheStats,
    /// L2 counters at the snapshot point.
    pub l2: CacheStats,
    /// Instructions retired by the recorded core at the snapshot point.
    pub instructions: u64,
    /// Prefetch requests issued at the snapshot point.
    pub prefetches_issued: u64,
}

impl RecordedWindow {
    fn from_stats(stats: &HierarchyStats) -> Self {
        RecordedWindow {
            l1d: stats.l1d,
            l2: stats.l2,
            instructions: stats.instructions,
            prefetches_issued: stats.prefetches_issued,
        }
    }
}

/// One workload's recorded upper-hierarchy stream.
///
/// Events are stored in structure-of-arrays form in *emission* order: a
/// demand access is logged when the core issues it (before its level is
/// known; the level is patched once the private probes resolve), and the
/// prefetch fills draining during that access follow it. A separate
/// index list ([`LlcRecording::replay_llc`] walks it) holds the events
/// that reach the LLC in true LLC-access order: the drains of access
/// *i* precede the demand of access *i*, which precedes the drains of
/// access *i + 1*.
pub struct LlcRecording {
    name: String,
    pcs: Vec<u64>,
    addresses: Vec<u64>,
    cores: Vec<u8>,
    flags: Vec<u8>,
    gaps: Vec<u8>,
    /// Indices of LLC-reaching events, in LLC-access order.
    llc_events: Vec<u32>,
    /// Number of leading events that belong to the warmup window.
    warmup_events: usize,
    /// Private-level snapshot at the warmup/measure boundary.
    boundary: RecordedWindow,
    /// Private-level snapshot at the end of the recording.
    end: RecordedWindow,
}

impl std::fmt::Debug for LlcRecording {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LlcRecording")
            .field("name", &self.name)
            .field("events", &self.len())
            .field("llc_events", &self.llc_events.len())
            .field("warmup_events", &self.warmup_events)
            .finish()
    }
}

impl LlcRecording {
    /// Records `warmup` then `measure` retired instructions of `trace`
    /// through the private levels of `config` (its LLC geometry is
    /// ignored — the recording is LLC-independent).
    ///
    /// The two windows mirror `SingleCoreSim::run`'s advance loops
    /// exactly, including their per-window instruction overshoot, so a
    /// full replay reproduces the simulation bit for bit.
    pub fn record(
        name: &str,
        mut trace: impl Iterator<Item = MemoryAccess>,
        config: &HierarchyConfig,
        warmup: u64,
        measure: u64,
    ) -> Self {
        let mut private = CorePrivate::new(config);
        // Every demand access is an event, and LLC-bound prefetch fills
        // add more; the vectors start at one event per eight instructions
        // and grow past that as needed.
        let hint = ((warmup + measure) / 8) as usize;
        let mut rec = LlcRecording {
            name: name.to_string(),
            pcs: Vec::with_capacity(hint),
            addresses: Vec::with_capacity(hint),
            cores: Vec::with_capacity(hint),
            flags: Vec::with_capacity(hint),
            gaps: Vec::with_capacity(hint),
            llc_events: Vec::new(),
            warmup_events: 0,
            boundary: RecordedWindow::default(),
            end: RecordedWindow::default(),
        };

        let mut retired = 0u64;
        while retired < warmup {
            let access = trace.next().expect("workload traces are infinite");
            private.access_recorded(&access, &mut rec);
            retired += access.instructions();
        }
        rec.warmup_events = rec.pcs.len();
        rec.boundary = RecordedWindow::from_stats(&private.stats());

        let mut retired = 0u64;
        while retired < measure {
            let access = trace.next().expect("workload traces are infinite");
            private.access_recorded(&access, &mut rec);
            retired += access.instructions();
        }
        rec.end = RecordedWindow::from_stats(&private.stats());
        rec
    }

    /// Workload name the recording was made from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of recorded events (demand accesses + LLC-bound
    /// prefetch fills).
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Number of events that reach the LLC.
    pub fn llc_len(&self) -> usize {
        self.llc_events.len()
    }

    /// Number of leading events belonging to the warmup window.
    pub fn warmup_events(&self) -> usize {
        self.warmup_events
    }

    /// Private-level snapshot at the warmup/measure boundary.
    pub fn boundary(&self) -> &RecordedWindow {
        &self.boundary
    }

    /// Private-level snapshot at the end of the recording.
    pub fn end(&self) -> &RecordedWindow {
        &self.end
    }

    /// Total instructions retired over both recorded windows.
    pub fn instructions(&self) -> u64 {
        self.end.instructions
    }

    /// Instructions retired in the measure window alone.
    pub fn measured_instructions(&self) -> u64 {
        self.end.instructions - self.boundary.instructions
    }

    /// Reconstructs the access of event `index`.
    #[inline]
    pub fn access_at(&self, index: usize) -> MemoryAccess {
        let flags = self.flags[index];
        MemoryAccess {
            pc: self.pcs[index],
            address: self.addresses[index],
            core: self.cores[index],
            kind: if flags & FLAG_STORE != 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            non_memory_before: self.gaps[index],
            dependent: flags & FLAG_DEPENDENT != 0,
        }
    }

    /// True when event `index` is a prefetch fill.
    #[inline]
    pub fn is_prefetch(&self, index: usize) -> bool {
        self.flags[index] & FLAG_PREFETCH != 0
    }

    /// Instructions event `index` retires (the access plus its preceding
    /// non-memory gap) — the timing model's input, without paying for a
    /// full [`MemoryAccess`] reconstruction.
    #[inline]
    pub fn instructions_at(&self, index: usize) -> u32 {
        u32::from(self.gaps[index]) + 1
    }

    /// Dependent flag of event `index`, without reconstructing the
    /// access.
    #[inline]
    pub fn dependent_at(&self, index: usize) -> bool {
        self.flags[index] & FLAG_DEPENDENT != 0
    }

    /// Servicing level of event `index` (always `Llc` for prefetches).
    #[inline]
    pub fn level_at(&self, index: usize) -> ServiceLevel {
        ServiceLevel::decode((self.flags[index] & LEVEL_MASK) >> LEVEL_SHIFT)
            .expect("recordings only store valid levels")
    }

    /// Block addresses of the LLC-reaching events, in LLC-access order —
    /// the stream the MIN oracle's second pass consumes.
    pub fn llc_blocks(&self) -> Vec<u64> {
        self.llc_events
            .iter()
            .map(|&i| self.addresses[i as usize] >> mrp_trace::BLOCK_OFFSET_BITS)
            .collect()
    }

    /// Replay loops run this many LLC events ahead of the serial update
    /// loop, software-prefetching each upcoming access's tag row
    /// ([`Cache::prefetch_block`]). Sized to cover the tag-array fetch
    /// latency without thrashing L1: at 4–8 events the row arrives
    /// before the update loop needs it (see DESIGN.md "Hot-path
    /// layout").
    pub const REPLAY_LOOKAHEAD: usize = 8;

    /// Replays only the LLC-reaching events into `cache` — the MPKI-only
    /// fast path (no timing model, no L1/L2 work).
    ///
    /// Demand accesses are forwarded to the policy's `on_core_access`
    /// hook first, substituting the filtered LLC stream for the full
    /// core-access stream; for every shipped policy this is exact
    /// because only the perceptron baseline implements the hook (and the
    /// fast path is not used to evaluate it). Use `mrp-cpu`'s full
    /// replay when hook exactness or timing matters.
    pub fn replay_llc(&self, cache: &mut Cache) {
        for (n, &i) in self.llc_events.iter().enumerate() {
            if let Some(&ahead) = self.llc_events.get(n + Self::REPLAY_LOOKAHEAD) {
                cache.prefetch_block(self.block_at(ahead as usize));
            }
            let i = i as usize;
            let access = self.access_at(i);
            if self.flags[i] & FLAG_PREFETCH != 0 {
                let _ = cache.access(&access, true);
            } else {
                cache.policy_mut().on_core_access(&access);
                let _ = cache.access(&access, false);
            }
        }
    }

    /// The cache block event `index` addresses, without reconstructing
    /// the full [`MemoryAccess`] (the prefetch front-end's lookahead
    /// reads only this).
    #[inline]
    pub fn block_at(&self, index: usize) -> u64 {
        self.addresses[index] >> mrp_trace::BLOCK_OFFSET_BITS
    }

    /// Whether event `index` reaches the LLC (a demand access serviced
    /// there, or a prefetch fill) — one flag-byte read, for lookahead
    /// scans over emission order.
    #[inline]
    pub fn reaches_llc(&self, index: usize) -> bool {
        (self.flags[index] & LEVEL_MASK) >> LEVEL_SHIFT == ServiceLevel::Llc.encode()
    }

    // --- recording hooks driven by `CorePrivate::access_recorded` ---

    /// Patches the servicing level of demand event `index`; LLC-bound
    /// events join the LLC-order index list (after any prefetch drains
    /// logged during the same access, matching the order a real LLC
    /// would see).
    pub(crate) fn set_level(&mut self, index: usize, level: ServiceLevel) {
        self.flags[index] = (self.flags[index] & !LEVEL_MASK) | (level.encode() << LEVEL_SHIFT);
        if level == ServiceLevel::Llc {
            self.llc_events.push(index as u32);
        }
    }

    fn push_raw(&mut self, access: &MemoryAccess, extra_flags: u8) {
        self.pcs.push(access.pc);
        self.addresses.push(access.address);
        self.cores.push(access.core);
        let mut flags = extra_flags;
        if access.kind == AccessKind::Store {
            flags |= FLAG_STORE;
        }
        if access.dependent {
            flags |= FLAG_DEPENDENT;
        }
        self.flags.push(flags);
        self.gaps.push(access.non_memory_before);
    }
}

/// The recording as the private-level step's LLC: it logs what a live
/// LLC would observe and, having no tag array, ignores the L1-miss hint.
impl LlcSink for LlcRecording {
    /// Appends a demand access; `CorePrivate::access_recorded` patches
    /// its level once the private probes resolve.
    fn core_access(&mut self, access: &MemoryAccess) {
        self.push_raw(access, 0);
    }

    fn prefetch_fill(&mut self, pf: &MemoryAccess) {
        let index = self.pcs.len();
        self.push_raw(
            pf,
            FLAG_PREFETCH | (ServiceLevel::Llc.encode() << LEVEL_SHIFT),
        );
        self.llc_events.push(index as u32);
    }

    fn l1_miss(&mut self, _block: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::hierarchy::Hierarchy;
    use crate::policies::Lru;
    use crate::policy::{AccessInfo, ReplacementPolicy};
    use mrp_trace::workloads;
    use std::sync::{Arc, Mutex};

    /// LLC policy wrapper logging `(block, is_prefetch)` of every access
    /// reaching the LLC during a *full* simulation, to check recordings
    /// against ground truth. (Prefetch accesses are recognizable by
    /// their substituted fake PC. `Hierarchy` wants `Send` policies, so
    /// the test log is shared; production recording has no such channel.)
    struct LoggingLru {
        inner: Lru,
        log: Arc<Mutex<Vec<(u64, bool)>>>,
    }

    impl ReplacementPolicy for LoggingLru {
        fn name(&self) -> &str {
            "logging-lru"
        }
        fn on_access(&mut self, info: &AccessInfo) {
            self.log
                .lock()
                .expect("test log")
                .push((info.block, info.pc == crate::policy::PREFETCH_PC));
            self.inner.on_access(info);
        }
        fn on_hit(&mut self, info: &AccessInfo, way: u32) {
            self.inner.on_hit(info, way);
        }
        fn choose_victim(&mut self, info: &AccessInfo, occupants: &[u64]) -> u32 {
            self.inner.choose_victim(info, occupants)
        }
        fn on_fill(&mut self, info: &AccessInfo, way: u32) {
            self.inner.on_fill(info, way);
        }
    }

    fn full_sim_llc_log(workload_index: usize, seed: u64, instructions: u64) -> Vec<(u64, bool)> {
        let config = HierarchyConfig::single_thread();
        let log = Arc::new(Mutex::new(Vec::new()));
        let policy = LoggingLru {
            inner: Lru::new(config.llc.sets(), config.llc.associativity()),
            log: log.clone(),
        };
        let mut h = Hierarchy::new(config, Box::new(policy));
        let mut retired = 0u64;
        let mut trace = workloads::suite()[workload_index].trace(seed);
        while retired < instructions {
            let access = trace.next().expect("infinite");
            h.access(&access);
            retired += access.instructions();
        }
        let log = log.lock().expect("test log");
        log.clone()
    }

    fn small_recording(workload_index: usize) -> LlcRecording {
        let suite = workloads::suite();
        let w = &suite[workload_index];
        LlcRecording::record(
            w.name(),
            w.trace(3),
            &HierarchyConfig::single_thread(),
            0,
            40_000,
        )
    }

    #[test]
    fn recorded_llc_stream_matches_full_simulation() {
        for workload_index in [0, 4, 10] {
            let rec = {
                let suite = workloads::suite();
                let w = &suite[workload_index];
                LlcRecording::record(
                    w.name(),
                    w.trace(3),
                    &HierarchyConfig::single_thread(),
                    0,
                    40_000,
                )
            };
            let truth = full_sim_llc_log(workload_index, 3, 40_000);
            let recorded: Vec<(u64, bool)> = rec
                .llc_events
                .iter()
                .map(|&i| {
                    let i = i as usize;
                    (rec.access_at(i).block(), rec.is_prefetch(i))
                })
                .collect();
            assert_eq!(
                recorded, truth,
                "workload {workload_index}: recorded LLC stream diverged from full simulation"
            );
        }
    }

    #[test]
    fn recording_is_llc_geometry_independent() {
        // Same private levels, so the recording must not depend on which
        // LLC geometry the config names.
        let suite = workloads::suite();
        let w = &suite[2];
        let single = LlcRecording::record(
            w.name(),
            w.trace(9),
            &HierarchyConfig::single_thread(),
            5_000,
            20_000,
        );
        let multi = LlcRecording::record(
            w.name(),
            w.trace(9),
            &HierarchyConfig::multi_core(),
            5_000,
            20_000,
        );
        assert_eq!(single.len(), multi.len());
        assert_eq!(single.llc_events, multi.llc_events);
        assert_eq!(single.boundary, multi.boundary);
        assert_eq!(single.end, multi.end);
    }

    #[test]
    fn replay_llc_reproduces_lru_misses() {
        // Fast replay against LRU must see exactly the misses the logged
        // full simulation saw (same stream, same policy, same geometry).
        let rec = small_recording(0);
        let config = CacheConfig::llc_single();
        let mut cache = Cache::new(
            config,
            Box::new(Lru::new(config.sets(), config.associativity())),
        );
        rec.replay_llc(&mut cache);
        let log = full_sim_llc_log(0, 3, 40_000);
        assert_eq!(
            cache.stats().demand_accesses()
                + cache.stats().prefetch_hits
                + cache.stats().prefetch_fills,
            log.len() as u64
        );
    }

    #[test]
    fn warmup_split_points_at_first_measure_event() {
        let suite = workloads::suite();
        let w = &suite[1];
        let rec = LlcRecording::record(
            w.name(),
            w.trace(7),
            &HierarchyConfig::single_thread(),
            10_000,
            10_000,
        );
        assert!(rec.warmup_events > 0);
        assert!(rec.warmup_events < rec.len());
        assert!(rec.boundary.instructions >= 10_000);
        assert_eq!(
            rec.measured_instructions(),
            rec.end.instructions - rec.boundary.instructions
        );
    }

    #[test]
    fn llc_blocks_follow_llc_order() {
        let rec = small_recording(0);
        let blocks = rec.llc_blocks();
        assert_eq!(blocks.len(), rec.llc_len());
        let truth: Vec<u64> = full_sim_llc_log(0, 3, 40_000)
            .iter()
            .map(|&(b, _)| b)
            .collect();
        assert_eq!(blocks, truth);
    }
}
