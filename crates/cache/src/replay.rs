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

// Layout of a recorded event's packed `u32` word, low bits first:
// `gap:8 | store:1 | dependent:1 | prefetch:1 | level:2 | core:3 | hi id:6 | pc id:10`.
// The event's address is `high_words[hi id] << 32 | lows[event]`.
/// Mask of the non-memory gap (`MemoryAccess::non_memory_before`).
const GAP_MASK: u32 = 0xff;
/// The access is a store.
const FLAG_STORE: u32 = 1 << 8;
/// The access's address depends on the previous access.
const FLAG_DEPENDENT: u32 = 1 << 9;
/// The event is a hardware prefetch fill.
const FLAG_PREFETCH: u32 = 1 << 10;
/// Shift of the two servicing-level bits ([`ServiceLevel::encode`]).
const LEVEL_SHIFT: u32 = 11;
/// Mask of the two servicing-level bits.
const LEVEL_MASK: u32 = 0b11 << LEVEL_SHIFT;
/// Shift of the three core bits.
const CORE_SHIFT: u32 = 13;
/// Cores the three core bits can name.
const MAX_CORES: u8 = 8;
/// Shift of the 6-bit index into the recording's high-word table.
const HI_SHIFT: u32 = 16;
/// Distinct high address words (`address >> 32`) the 6-bit index can
/// name.
const MAX_HIGH_WORDS: usize = 1 << 6;
/// Shift of the 10-bit index into the recording's PC table.
const PC_SHIFT: u32 = 22;
/// Distinct PCs the 10-bit PC index can name.
const MAX_PCS: usize = 1 << 10;

/// The high-word id of packed event `word`.
#[inline]
fn high_id(word: u32) -> usize {
    ((word >> HI_SHIFT) as usize) & (MAX_HIGH_WORDS - 1)
}

/// The distinct PCs of one recording, in first-seen order: an event
/// stores its PC's index here. Workload traces name few PCs (1–14 per
/// suite member), so the table is tiny next to the events.
///
/// While recording, `slots` indexes the table by PC (open addressing,
/// Fibonacci hashing, linear probing, at most half full), so interning
/// costs one multiply and a probe or two however many PCs the trace
/// names. That is cheaper than scanning the table even at the suite's
/// 4–14 PCs, where a scan made recording 6–23% slower.
/// [`PcTable::finish`] drops the index.
struct PcTable {
    pcs: Vec<u64>,
    /// Table index per slot, [`PcTable::EMPTY`] for a free slot; a
    /// power-of-two length while recording, empty after.
    slots: Vec<u32>,
}

impl PcTable {
    const EMPTY: u32 = u32::MAX;
    /// Slot count the index starts with.
    const INITIAL_SLOTS: usize = 64;

    fn new() -> Self {
        PcTable {
            pcs: Vec::new(),
            slots: vec![Self::EMPTY; Self::INITIAL_SLOTS],
        }
    }

    /// The slot holding `pc`'s id, or the free slot where it belongs:
    /// probing from its Fibonacci-hashed home slot.
    #[inline]
    fn slot_of(&self, pc: u64) -> usize {
        let mask = self.slots.len() - 1;
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut slot = (pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        while self.slots[slot] != Self::EMPTY && self.pcs[self.slots[slot] as usize] != pc {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// The table index of `pc`, appending it on first sight.
    ///
    /// # Panics
    ///
    /// Panics when `pc` would be the table's 1,025th distinct PC.
    #[inline]
    fn intern(&mut self, pc: u64) -> u32 {
        let slot = self.slot_of(pc);
        if self.slots[slot] != Self::EMPTY {
            return self.slots[slot];
        }
        assert!(
            self.pcs.len() < MAX_PCS,
            "a recording names at most {MAX_PCS} distinct PCs"
        );
        let id = self.pcs.len() as u32;
        self.pcs.push(pc);
        self.slots[slot] = id;
        if 2 * self.pcs.len() > self.slots.len() {
            // Re-insert every PC into an index twice the size.
            self.slots = vec![Self::EMPTY; 2 * self.slots.len()];
            for (id, &pc) in self.pcs.iter().enumerate() {
                let slot = self.slot_of(pc);
                self.slots[slot] = id as u32;
            }
        }
        id
    }

    /// Ends recording: drops the index and sizes the table exactly.
    fn finish(&mut self) {
        self.slots = Vec::new();
        self.pcs.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        self.pcs.capacity() * std::mem::size_of::<u64>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

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
/// Events are stored in *emission* order: a demand access is logged when
/// the core issues it (before its level is known; the level is patched
/// once the private probes resolve), and the prefetch fills draining
/// during that access follow it. True LLC-access order differs: the
/// drains of access *i* precede the demand of access *i*, which precedes
/// the drains of access *i + 1*. An LLC mask, one bit per event, marks
/// the events that reach the LLC, and [`LlcRecording::for_each_llc`]
/// recovers LLC-access order from it.
///
/// An event costs 8 bytes: the low 32 bits of its address and one
/// packed `u32` holding the gap, the store/dependent/prefetch flags, the
/// servicing level, the core, an index into the recording's table of
/// high address words (`address >> 32`) and an index into its PC table.
/// The mask adds one bit per event. Every vector is sized exactly once
/// [`LlcRecording::record`] returns.
pub struct LlcRecording {
    name: String,
    /// One packed word per event (layout above `PcTable`).
    events: Vec<u32>,
    /// The low 32 bits of each event's address.
    lows: Vec<u32>,
    /// The distinct high address words, in first-seen order: at most
    /// [`MAX_HIGH_WORDS`], and one per suite member.
    high_words: Vec<u32>,
    pc_table: PcTable,
    /// Bit `i % 64` of word `i / 64` is set when event `i` reaches the
    /// LLC; one word per 64 events.
    llc_mask: Vec<u64>,
    /// Number of set bits in `llc_mask`.
    llc_count: usize,
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
            .field("llc_events", &self.llc_count)
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
    ///
    /// # Panics
    ///
    /// Panics if the trace ends early, if an access names a core of 8
    /// or above, if the trace names more than 1,024 distinct PCs, or if
    /// its addresses name more than 64 distinct high words
    /// (`address >> 32`). The packed event word holds a 3-bit core, a
    /// 6-bit high-word index and a 10-bit PC index; none is ever
    /// truncated.
    pub fn record(
        name: &str,
        mut trace: impl Iterator<Item = MemoryAccess>,
        config: &HierarchyConfig,
        warmup: u64,
        measure: u64,
    ) -> Self {
        let mut private = CorePrivate::new(config);
        // Every demand access is an event, and LLC-bound prefetch fills
        // add more; the event vectors start at one event per eight
        // instructions and grow past that as needed.
        let hint = ((warmup + measure) / 8) as usize;
        let mut rec = LlcRecording {
            name: name.to_string(),
            events: Vec::with_capacity(hint),
            lows: Vec::with_capacity(hint),
            high_words: Vec::new(),
            pc_table: PcTable::new(),
            llc_mask: Vec::new(),
            llc_count: 0,
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
        rec.warmup_events = rec.len();
        rec.boundary = RecordedWindow::from_stats(&private.stats());

        let mut retired = 0u64;
        while retired < measure {
            let access = trace.next().expect("workload traces are infinite");
            private.access_recorded(&access, &mut rec);
            retired += access.instructions();
        }
        rec.end = RecordedWindow::from_stats(&private.stats());
        rec.events.shrink_to_fit();
        rec.lows.shrink_to_fit();
        rec.high_words.shrink_to_fit();
        rec.llc_mask.shrink_to_fit();
        rec.pc_table.finish();
        rec
    }

    /// Workload name the recording was made from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of recorded events (demand accesses + LLC-bound
    /// prefetch fills).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events that reach the LLC.
    pub fn llc_len(&self) -> usize {
        self.llc_count
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
        let word = self.events[index];
        MemoryAccess {
            pc: self.pc_table.pcs[(word >> PC_SHIFT) as usize],
            address: self.address_of(index, word),
            core: ((word >> CORE_SHIFT) & u32::from(MAX_CORES - 1)) as u8,
            kind: if word & FLAG_STORE != 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            non_memory_before: (word & GAP_MASK) as u8,
            dependent: word & FLAG_DEPENDENT != 0,
        }
    }

    /// True when event `index` is a prefetch fill.
    #[inline]
    pub fn is_prefetch(&self, index: usize) -> bool {
        self.events[index] & FLAG_PREFETCH != 0
    }

    /// Instructions event `index` retires (the access plus its preceding
    /// non-memory gap) — the timing model's input, without paying for a
    /// full [`MemoryAccess`] reconstruction.
    #[inline]
    pub fn instructions_at(&self, index: usize) -> u32 {
        (self.events[index] & GAP_MASK) + 1
    }

    /// Dependent flag of event `index`, without reconstructing the
    /// access.
    #[inline]
    pub fn dependent_at(&self, index: usize) -> bool {
        self.events[index] & FLAG_DEPENDENT != 0
    }

    /// Servicing level of event `index` (always `Llc` for prefetches).
    #[inline]
    pub fn level_at(&self, index: usize) -> ServiceLevel {
        ServiceLevel::decode(((self.events[index] & LEVEL_MASK) >> LEVEL_SHIFT) as u8)
            .expect("recordings only store valid levels")
    }

    /// Block addresses of the LLC-reaching events, in LLC-access order
    /// ([`Self::for_each_llc`]) — the stream the MIN oracle's second pass
    /// consumes.
    pub fn llc_blocks(&self) -> Vec<u64> {
        let mut blocks = Vec::with_capacity(self.llc_count);
        self.for_each_llc(|i| blocks.push(self.block_at(i)));
        blocks
    }

    /// Calls `visit` with the index of every LLC-reaching event, in
    /// LLC-access order.
    ///
    /// It steps over the LLC mask's set bits, so events serviced by L1
    /// or L2 cost nothing beyond their bit, and applies `mrp-cpu`'s
    /// `replay_single` pending rule to emission order:
    ///
    /// * an LLC-bound demand is held;
    /// * a prefetch fill directly after the held demand or its drains
    ///   (index = previous LLC index + 1) drained during that access, so
    ///   it goes first;
    /// * a gap or a new demand issues the held demand first (every
    ///   prefetch fill reaches the LLC, so a gap is a demand serviced by
    ///   L1 or L2);
    /// * a demand still held at the end is issued last.
    pub fn for_each_llc(&self, mut visit: impl FnMut(usize)) {
        let mut pending = None;
        let mut last = 0;
        for (word_index, &word) in self.llc_mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let index = word_index * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let prefetch = self.is_prefetch(index);
                if !(prefetch && index == last + 1) {
                    if let Some(demand) = pending.take() {
                        visit(demand);
                    }
                }
                if prefetch {
                    visit(index);
                } else {
                    pending = Some(index);
                }
                last = index;
            }
        }
        if let Some(demand) = pending {
            visit(demand);
        }
    }

    /// `mrp-cpu`'s timing replay runs this many events ahead of its
    /// serial update loop, software-prefetching each upcoming LLC
    /// access's tag row ([`Cache::prefetch_block`]). Sized to cover the
    /// tag-array fetch latency without thrashing L1: at 4–8 events the
    /// row arrives before the update loop needs it (see DESIGN.md
    /// "Hot-path layout").
    pub const REPLAY_LOOKAHEAD: usize = 8;

    /// Replays only the LLC-reaching events into `cache`, in LLC-access
    /// order ([`Self::for_each_llc`]) — the MPKI-only fast path (no
    /// timing model, no L1/L2 work). It shows the LLC the same
    /// operations as `mrp-cpu`'s timing replay and full simulation.
    ///
    /// Demand accesses are forwarded to the policy's `on_core_access`
    /// hook first, substituting the filtered LLC stream for the full
    /// core-access stream; for every shipped policy this is exact
    /// because only the perceptron baseline implements the hook (and the
    /// fast path is not used to evaluate it). Use `mrp-cpu`'s full
    /// replay when hook exactness or timing matters.
    pub fn replay_llc(&self, cache: &mut Cache) {
        self.for_each_llc(|i| {
            let access = self.access_at(i);
            if self.is_prefetch(i) {
                let _ = cache.access(&access, true);
            } else {
                cache.policy_mut().on_core_access(&access);
                let _ = cache.access(&access, false);
            }
        });
    }

    /// The cache block event `index` addresses, without reconstructing
    /// the full [`MemoryAccess`] (the prefetch front-end's lookahead
    /// reads only this).
    #[inline]
    pub fn block_at(&self, index: usize) -> u64 {
        self.address_of(index, self.events[index]) >> mrp_trace::BLOCK_OFFSET_BITS
    }

    /// The address of event `index`, whose packed word is `word`.
    #[inline]
    fn address_of(&self, index: usize, word: u32) -> u64 {
        u64::from(self.high_words[high_id(word)]) << 32 | u64::from(self.lows[index])
    }

    /// Whether event `index` reaches the LLC (a demand access serviced
    /// there, or a prefetch fill) — one event-word read, for lookahead
    /// scans over emission order.
    #[inline]
    pub fn reaches_llc(&self, index: usize) -> bool {
        self.events[index] & LEVEL_MASK == u32::from(ServiceLevel::Llc.encode()) << LEVEL_SHIFT
    }

    /// Heap bytes the recording holds: its event words, low address
    /// words, LLC mask, high-word and PC tables, and name. Once
    /// [`Self::record`] returns, every vector is sized exactly, so this
    /// is 8 bytes per event plus one 8-byte mask word per 64 events, plus
    /// the two tables (4 bytes per high word, 8 per PC) and the name.
    pub fn heap_bytes(&self) -> usize {
        (self.events.capacity() + self.lows.capacity() + self.high_words.capacity())
            * std::mem::size_of::<u32>()
            + self.llc_mask.capacity() * std::mem::size_of::<u64>()
            + self.pc_table.heap_bytes()
            + self.name.capacity()
    }

    // --- recording hooks driven by `CorePrivate::access_recorded` ---

    /// Patches the servicing level of demand event `index`, marking it in
    /// the LLC mask when it is LLC-bound.
    pub(crate) fn set_level(&mut self, index: usize, level: ServiceLevel) {
        let word = &mut self.events[index];
        *word = (*word & !LEVEL_MASK) | (u32::from(level.encode()) << LEVEL_SHIFT);
        if level == ServiceLevel::Llc {
            self.mark_llc(index);
        }
    }

    fn mark_llc(&mut self, index: usize) {
        self.llc_mask[index / 64] |= 1 << (index % 64);
        self.llc_count += 1;
    }

    /// Appends one event.
    ///
    /// # Panics
    ///
    /// Panics if `access.core` is 8 or above, if `access.pc` would be
    /// the recording's 1,025th distinct PC, or if `access.address` would
    /// bring its 65th distinct high word.
    fn push_raw(&mut self, access: &MemoryAccess, extra_flags: u32) {
        assert!(
            access.core < MAX_CORES,
            "core {} does not fit a recording's 3-bit core field",
            access.core
        );
        let mut word = extra_flags
            | u32::from(access.non_memory_before)
            | u32::from(access.core) << CORE_SHIFT
            | self.intern_high_word(access.address) << HI_SHIFT
            | self.pc_table.intern(access.pc) << PC_SHIFT;
        if access.kind == AccessKind::Store {
            word |= FLAG_STORE;
        }
        if access.dependent {
            word |= FLAG_DEPENDENT;
        }
        if self.events.len().is_multiple_of(64) {
            self.llc_mask.push(0);
        }
        self.events.push(word);
        self.lows.push(access.address as u32);
    }

    /// The high-word id of `address`, appending its high word on first
    /// sight. Consecutive events almost always share a high word, so the
    /// previous event's is tried before the table.
    ///
    /// # Panics
    ///
    /// Panics when `address` would bring the recording's 65th distinct
    /// high word.
    #[inline]
    fn intern_high_word(&mut self, address: u64) -> u32 {
        let high = (address >> 32) as u32;
        if let Some(&last) = self.events.last() {
            let id = high_id(last);
            if self.high_words[id] == high {
                return id as u32;
            }
        }
        if let Some(id) = self.high_words.iter().position(|&h| h == high) {
            return id as u32;
        }
        assert!(
            self.high_words.len() < MAX_HIGH_WORDS,
            "a recording names at most {MAX_HIGH_WORDS} distinct high address words"
        );
        self.high_words.push(high);
        (self.high_words.len() - 1) as u32
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
        let index = self.len();
        self.push_raw(
            pf,
            FLAG_PREFETCH | (u32::from(ServiceLevel::Llc.encode()) << LEVEL_SHIFT),
        );
        self.mark_llc(index);
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

    /// The LLC log of a full simulation over `warmup` then `measure`
    /// instructions of `trace`, with `record`'s two advance loops.
    fn full_sim_llc_log(
        mut trace: impl Iterator<Item = MemoryAccess>,
        warmup: u64,
        measure: u64,
    ) -> Vec<(u64, bool)> {
        let config = HierarchyConfig::single_thread();
        let log = Arc::new(Mutex::new(Vec::new()));
        let policy = LoggingLru {
            inner: Lru::new(config.llc.sets(), config.llc.associativity()),
            log: log.clone(),
        };
        let mut h = Hierarchy::new(config, Box::new(policy));
        for window in [warmup, measure] {
            let mut retired = 0u64;
            while retired < window {
                let access = trace.next().expect("infinite");
                h.access(&access);
                retired += access.instructions();
            }
        }
        let log = log.lock().expect("test log");
        log.clone()
    }

    fn suite_trace(workload_index: usize, seed: u64) -> impl Iterator<Item = MemoryAccess> {
        workloads::suite()[workload_index].trace(seed)
    }

    /// A SplitMix64-driven stream covering every field's range: loads
    /// and stores, dependent and not, gaps 0, 255 and below 8, cores
    /// 0..=3, 300 distinct PCs, and sequential runs (which train the
    /// prefetcher) mixed with hot-set and scattered addresses.
    fn splitmix_stream(seed: u64) -> impl Iterator<Item = MemoryAccess> {
        let mut state = seed;
        let mut cursor = 0u64;
        std::iter::from_fn(move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut r = state;
            r = (r ^ (r >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            r = (r ^ (r >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            r ^= r >> 31;
            let address = match r % 3 {
                0 => {
                    cursor += 64;
                    (1 << 32) + cursor
                }
                1 => (r >> 8) % 2048 * 64,
                _ => (r >> 8) & ((1 << 34) - 1),
            };
            Some(MemoryAccess {
                pc: 0x40_0000 + (r >> 16) % 300 * 4,
                address,
                core: ((r >> 40) % 4) as u8,
                kind: if r >> 43 & 1 == 1 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
                non_memory_before: match (r >> 44) % 16 {
                    0 => 255,
                    1..=7 => 0,
                    _ => (r >> 48) as u8 % 8,
                },
                dependent: r >> 47 & 1 == 1,
            })
        })
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
            let truth = full_sim_llc_log(suite_trace(workload_index, 3), 0, 40_000);
            let mut recorded = Vec::new();
            rec.for_each_llc(|i| recorded.push((rec.access_at(i).block(), rec.is_prefetch(i))));
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
        assert_eq!(single.llc_mask, multi.llc_mask);
        assert_eq!(single.llc_count, multi.llc_count);
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
        let log = full_sim_llc_log(suite_trace(0, 3), 0, 40_000);
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
        let config = HierarchyConfig::single_thread();
        let (warmup, measure) = (15_000, 40_000);
        for (rec, truth) in [
            (
                LlcRecording::record("suite", suite_trace(0, 3), &config, warmup, measure),
                full_sim_llc_log(suite_trace(0, 3), warmup, measure),
            ),
            (
                LlcRecording::record("splitmix", splitmix_stream(11), &config, warmup, measure),
                full_sim_llc_log(splitmix_stream(11), warmup, measure),
            ),
        ] {
            assert!(rec.warmup_events() > 0);
            let blocks = rec.llc_blocks();
            assert_eq!(blocks.len(), rec.llc_len());
            let truth: Vec<u64> = truth.iter().map(|&(b, _)| b).collect();
            assert_eq!(blocks, truth, "{}", rec.name());
        }
    }

    #[test]
    fn recording_returns_every_demand_access_field_for_field() {
        let rec = LlcRecording::record(
            "splitmix",
            splitmix_stream(5),
            &HierarchyConfig::single_thread(),
            5_000,
            60_000,
        );
        let demands: Vec<MemoryAccess> = (0..rec.len())
            .filter(|&i| !rec.is_prefetch(i))
            .map(|i| rec.access_at(i))
            .collect();
        assert!(
            demands.len() < rec.len(),
            "the stream must train prefetches"
        );
        let expected: Vec<MemoryAccess> = splitmix_stream(5).take(demands.len()).collect();
        assert_eq!(demands, expected);
        // The stream reached every field's extremes.
        assert!(rec.pc_table.pcs.len() > 256);
        assert_eq!(rec.high_words.len(), 4);
        assert!((0..4).all(|core| demands.iter().any(|a| a.core == core)));
        for gap in [0, 255] {
            assert!(demands.iter().any(|a| a.non_memory_before == gap));
        }
        assert!(demands.iter().any(|a| a.kind == AccessKind::Store));
        assert!(demands.iter().any(|a| a.kind == AccessKind::Load));
        assert!(demands.iter().any(|a| a.dependent));
        assert!(demands.iter().any(|a| !a.dependent));
    }

    #[test]
    #[should_panic(expected = "does not fit a recording's 3-bit core field")]
    fn core_eight_is_rejected() {
        let access = MemoryAccess {
            core: 8,
            ..MemoryAccess::load(0x40_0000, 0)
        };
        LlcRecording::record(
            "core8",
            std::iter::repeat(access),
            &HierarchyConfig::single_thread(),
            0,
            100,
        );
    }

    #[test]
    fn extreme_addresses_round_trip_field_for_field() {
        // The last is the highest block-aligned address, `u64::MAX & !63`.
        const ADDRESSES: [u64; 4] = [0, (1 << 32) - 1, 1 << 32, !63];
        let trace = (0u64..).map(|i| MemoryAccess {
            pc: 0x40_0000 + 4 * (i % 5),
            address: ADDRESSES[(i % 4) as usize],
            core: (i % 8) as u8,
            kind: if i % 3 == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            non_memory_before: (i * 37 % 256) as u8,
            dependent: i % 2 == 1,
        });
        let rec = LlcRecording::record(
            "extremes",
            trace.clone(),
            &HierarchyConfig::single_thread(),
            0,
            4_000,
        );
        let demands: Vec<usize> = (0..rec.len()).filter(|&i| !rec.is_prefetch(i)).collect();
        let expected: Vec<MemoryAccess> = trace.take(demands.len()).collect();
        assert!(demands.len() >= 8);
        for (&i, want) in demands.iter().zip(&expected) {
            assert_eq!(rec.access_at(i), *want, "event {i}");
            assert_eq!(rec.block_at(i), want.block(), "event {i}");
        }
        assert_eq!(rec.high_words, [0, 1, u32::MAX]);
    }

    #[test]
    #[should_panic(expected = "a recording names at most 64 distinct high address words")]
    fn high_word_beyond_the_6_bit_index_is_rejected() {
        let trace = (0u64..).map(|i| MemoryAccess {
            non_memory_before: 0,
            ..MemoryAccess::load(0x40_0000, i << 32)
        });
        LlcRecording::record("highs", trace, &HierarchyConfig::single_thread(), 0, 100);
    }

    #[test]
    fn sixty_four_high_words_fit() {
        let trace = (0u64..).map(|i| MemoryAccess {
            non_memory_before: 0,
            ..MemoryAccess::load(0x40_0000, ((i % 64) << 32) | (64 * i))
        });
        let rec = LlcRecording::record(
            "highs",
            trace.clone(),
            &HierarchyConfig::single_thread(),
            0,
            200,
        );
        assert_eq!(rec.high_words.len(), 64);
        let demands: Vec<MemoryAccess> = (0..rec.len())
            .filter(|&i| !rec.is_prefetch(i))
            .map(|i| rec.access_at(i))
            .collect();
        assert_eq!(demands, trace.take(demands.len()).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "a recording names at most 1024 distinct PCs")]
    fn pc_beyond_the_10_bit_index_is_rejected() {
        let trace = (0u64..).map(|i| MemoryAccess {
            non_memory_before: 0,
            ..MemoryAccess::load(0x40_0000 + 4 * i, 64 * (i % 512))
        });
        LlcRecording::record("pcs", trace, &HierarchyConfig::single_thread(), 0, 2_000);
    }

    #[test]
    fn suite_recordings_are_sized_exactly() {
        for workload_index in [0, 4, 10, 20] {
            let suite = workloads::suite();
            let w = &suite[workload_index];
            let rec = LlcRecording::record(
                w.name(),
                w.trace(3),
                &HierarchyConfig::single_thread(),
                10_000,
                40_000,
            );
            let bound = 8 * rec.len()
                + 8 * rec.len().div_ceil(64)
                + 4 * rec.high_words.len()
                + 8 * rec.pc_table.pcs.len()
                + rec.name().len();
            assert!(
                rec.heap_bytes() <= bound,
                "{}: {} heap bytes for {} events ({} at the LLC), bound {bound}",
                w.name(),
                rec.heap_bytes(),
                rec.len(),
                rec.llc_len()
            );
        }
    }
}
