//! Sampling Dead Block Prediction (SDBP).
//!
//! Khan, Tian & Jiménez, "Sampling Dead Block Prediction for Last-Level
//! Caches", MICRO 2010. A small set of sampled cache sets feeds a skewed
//! predictor of three PC-indexed tables of 2-bit saturating counters:
//! sampler hits decrement the counters for the hitting PC, sampler
//! evictions increment the counters for the PC that last touched the
//! victim. On LLC fills the summed counters classify the block dead (kept
//! as a per-block bit); predicted-dead blocks are victimized first and
//! dead-on-arrival fills are bypassed.

use mrp_cache::policies::Lru;
use mrp_cache::{AccessInfo, CacheConfig, ReplacementPolicy};
use mrp_core::tables::apply_events_i8;

/// Entries per skewed table (the original uses 4K-entry tables).
const TABLE_ENTRIES: usize = 4096;

/// Number of skewed tables.
const TABLES: usize = 3;

/// Saturation bounds of the 2-bit counters, in the shared weight-update
/// fold's signed representation.
const COUNTER_MIN: i8 = 0;
const COUNTER_MAX: i8 = 3;

/// Sampler associativity (reduced from the cache's 16, per the paper).
const SAMPLER_ASSOC: usize = 12;

/// Default dead threshold: sum of three 2-bit counters in `0..=9`.
const DEFAULT_THRESHOLD: u32 = 8;

#[derive(Debug, Clone, Copy, Default)]
struct SamplerEntry {
    tag: u16,
    last_pc_hash: u32,
    lru: u8,
    valid: bool,
}

/// The SDBP policy.
#[derive(Debug)]
pub struct Sdbp {
    /// The three skewed tables flattened into one arena; table `t`
    /// starts at `t * TABLE_ENTRIES`. Counters live in `0..=3` but are
    /// stored signed so the shared saturating weight-update fold can
    /// apply training.
    tables: Vec<i8>,
    sampler: Vec<[SamplerEntry; SAMPLER_ASSOC]>,
    sample_stride: u32,
    /// `(shift, mask)` when `sample_stride` is a power of two: replaces
    /// the division pair in the sampled-set check.
    sample_pow2: Option<(u32, u32)>,
    dead_bits: Vec<bool>,
    lru: Lru,
    assoc: u32,
    threshold: u32,
    /// Confidence of the most recent prediction (for ROC measurement).
    last_confidence: i32,
    measure_only: bool,
}

#[inline]
fn pc_hash(pc: u64) -> u32 {
    let x = pc ^ (pc >> 13) ^ (pc >> 29);
    (x & 0xffff_ffff) as u32
}

#[inline]
fn table_index(pc_hash: u32, table: usize) -> usize {
    // Skewed indexing: different shifts/multipliers per table. The
    // returned value is a flat-arena offset (table base folded in).
    let salts: [u32; TABLES] = [0x9e37_79b9, 0x85eb_ca6b, 0xc2b2_ae35];
    let h = pc_hash.wrapping_mul(salts[table]);
    table * TABLE_ENTRIES + (h >> 16) as usize % TABLE_ENTRIES
}

impl Sdbp {
    /// Creates the policy for `llc` with `sampler_sets` sampled sets.
    ///
    /// # Panics
    ///
    /// Panics if `sampler_sets` is 0 or exceeds the set count.
    pub fn new(llc: &CacheConfig, sampler_sets: u32) -> Self {
        assert!(
            sampler_sets > 0 && sampler_sets <= llc.sets(),
            "sampler sets out of range"
        );
        let sample_stride = (llc.sets() / sampler_sets).max(1);
        Sdbp {
            tables: vec![0i8; TABLES * TABLE_ENTRIES],
            sampler: vec![[SamplerEntry::default(); SAMPLER_ASSOC]; sampler_sets as usize],
            sample_stride,
            sample_pow2: sample_stride
                .is_power_of_two()
                .then(|| (sample_stride.trailing_zeros(), sample_stride - 1)),
            dead_bits: vec![false; llc.sets() as usize * llc.associativity() as usize],
            lru: Lru::new(llc.sets(), llc.associativity()),
            assoc: llc.associativity(),
            threshold: DEFAULT_THRESHOLD,
            last_confidence: 0,
            measure_only: false,
        }
    }

    /// Switches off the replacement/bypass optimization while keeping
    /// prediction and training active (ROC experiments).
    pub fn set_measure_only(&mut self, measure_only: bool) {
        self.measure_only = measure_only;
    }

    /// The confidence (counter sum, 0..=9) of the latest prediction.
    pub fn last_confidence(&self) -> i32 {
        self.last_confidence
    }

    fn predict_dead(&mut self, pc: u64) -> bool {
        let sum = self.confidence(pc);
        self.last_confidence = sum as i32;
        sum >= self.threshold
    }

    /// Counter sum for a PC.
    pub fn confidence(&self, pc: u64) -> u32 {
        let h = pc_hash(pc);
        (0..TABLES)
            .map(|t| u32::from(self.tables[table_index(h, t)] as u8))
            .sum()
    }

    fn train(&mut self, pc_hash_value: u32, dead: bool) {
        // One packed `(offset << 1) | sign` word per skewed table (the
        // flat-arena offsets land in disjoint per-table ranges), applied
        // through the shared saturating fold with the 2-bit bounds:
        // dead increments toward 3, live decrements toward 0.
        let sign = u32::from(!dead);
        let events: [u32; TABLES] =
            std::array::from_fn(|t| ((table_index(pc_hash_value, t) as u32) << 1) | sign);
        apply_events_i8(&mut self.tables, &events, COUNTER_MIN, COUNTER_MAX);
    }

    fn sampler_access(&mut self, set: u32, block: u64, pc: u64) {
        let sampler_set = match self.sample_pow2 {
            Some((shift, mask)) => {
                if set & mask != 0 {
                    return;
                }
                (set >> shift) as usize
            }
            None => {
                if !set.is_multiple_of(self.sample_stride) {
                    return;
                }
                (set / self.sample_stride) as usize
            }
        };
        if sampler_set >= self.sampler.len() {
            return;
        }
        let tag = (block ^ (block >> 15)) as u16 & 0x7fff;
        let h = pc_hash(pc);
        let entries = &mut self.sampler[sampler_set];

        if let Some(i) = entries.iter().position(|e| e.valid && e.tag == tag) {
            // Sampler hit: the PC that last touched this block led to a
            // live block.
            let trained = entries[i].last_pc_hash;
            let old_lru = entries[i].lru;
            for e in entries.iter_mut() {
                if e.valid && e.lru < old_lru {
                    e.lru += 1;
                }
            }
            entries[i].lru = 0;
            entries[i].last_pc_hash = h;
            self.train(trained, false);
            return;
        }

        // Miss: place, evicting the LRU entry if full and training its
        // last-touch PC as dead.
        if let Some(i) = entries.iter().position(|e| !e.valid) {
            for e in entries.iter_mut() {
                if e.valid {
                    e.lru += 1;
                }
            }
            entries[i] = SamplerEntry {
                tag,
                last_pc_hash: h,
                lru: 0,
                valid: true,
            };
            return;
        }
        let victim = entries
            .iter()
            .position(|e| e.lru as usize == SAMPLER_ASSOC - 1)
            .unwrap_or(0);
        let dead_pc = entries[victim].last_pc_hash;
        for e in entries.iter_mut() {
            e.lru = (e.lru + 1).min(SAMPLER_ASSOC as u8 - 1);
        }
        entries[victim] = SamplerEntry {
            tag,
            last_pc_hash: h,
            lru: 0,
            valid: true,
        };
        self.train(dead_pc, true);
    }

    #[inline]
    fn slot(&self, set: u32, way: u32) -> usize {
        set as usize * self.assoc as usize + way as usize
    }
}

impl ReplacementPolicy for Sdbp {
    fn name(&self) -> &str {
        "sdbp"
    }

    fn on_hit(&mut self, info: &AccessInfo, way: u32) {
        self.sampler_access(info.set, info.block, info.pc);
        let dead = self.predict_dead(info.pc);
        let slot = self.slot(info.set, way);
        self.dead_bits[slot] = dead && !self.measure_only;
        self.lru.on_hit(info, way);
    }

    fn should_bypass(&mut self, info: &AccessInfo) -> bool {
        self.sampler_access(info.set, info.block, info.pc);
        let dead = self.predict_dead(info.pc);
        dead && !self.measure_only
    }

    fn choose_victim(&mut self, info: &AccessInfo, occupants: &[u64]) -> u32 {
        if !self.measure_only {
            // Prefer a block predicted dead at its last access.
            for way in 0..self.assoc {
                if self.dead_bits[self.slot(info.set, way)] {
                    return way;
                }
            }
        }
        self.lru.choose_victim(info, occupants)
    }

    fn on_fill(&mut self, info: &AccessInfo, way: u32) {
        let slot = self.slot(info.set, way);
        self.dead_bits[slot] = false;
        self.lru.on_fill(info, way);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_cache::{AccessResult, Cache};
    use mrp_trace::MemoryAccess;

    fn llc() -> CacheConfig {
        CacheConfig::new(64 * 16 * 64, 16)
    }

    fn cache() -> Cache {
        let c = llc();
        Cache::new(c, Box::new(Sdbp::new(&c, 16)))
    }

    fn load(pc: u64, block: u64) -> MemoryAccess {
        MemoryAccess::load(pc, block * 64)
    }

    #[test]
    fn basic_hit_miss() {
        let mut c = cache();
        let a = load(0x400000, 3);
        assert!(c.access(&a, false).is_miss());
        assert!(c.access(&a, false).is_hit());
    }

    #[test]
    fn streaming_pc_learns_dead_and_bypasses() {
        let mut c = cache();
        let mut bypassed = false;
        for i in 0..300_000u64 {
            if c.access(&load(0x400000, i), false) == AccessResult::Bypassed {
                bypassed = true;
            }
        }
        assert!(bypassed, "SDBP should learn to bypass a pure stream");
    }

    #[test]
    fn reused_pc_is_not_predicted_dead() {
        let c = llc();
        let mut p = Sdbp::new(&c, 16);
        // Train live: repeated sampler hits on the same PC.
        for round in 0..50u64 {
            for b in 0..4u64 {
                p.sampler_access(0, b, 0x500000);
            }
            let _ = round;
        }
        assert!(p.confidence(0x500000) < DEFAULT_THRESHOLD);
    }

    #[test]
    fn measure_only_disables_optimization() {
        let c = llc();
        let mut p = Sdbp::new(&c, 16);
        p.set_measure_only(true);
        let mut cache = Cache::new(c, Box::new(p));
        for i in 0..200_000u64 {
            assert_ne!(
                cache.access(&load(0x400000, i), false),
                AccessResult::Bypassed
            );
        }
    }

    #[test]
    fn confidence_is_bounded() {
        let c = llc();
        let mut p = Sdbp::new(&c, 8);
        for i in 0..10_000u64 {
            p.sampler_access(0, i, 0x400000);
        }
        assert!(p.confidence(0x400000) <= 9);
    }
}
