//! Perceptron learning for reuse prediction.
//!
//! Teran, Wang & Jiménez, MICRO 2016 — the direct predecessor of
//! multiperspective prediction. Six fixed features (the current PC shifted,
//! three recent PCs, and two shifts of the block tag) each index a table of
//! 6-bit weights; the thresholded sum drives bypass and replacement, with a
//! per-block "predicted dead" bit (the extra state MPPPB eliminates, §2).

use mrp_cache::policies::Lru;
use mrp_cache::{AccessInfo, CacheConfig, ReplacementPolicy};
use mrp_core::simd::{self, GATHER_PAD};
use mrp_core::tables::apply_events_i8;
use mrp_trace::MemoryAccess;

/// Number of feature tables.
const FEATURES: usize = 6;

/// Entries per table.
const TABLE_ENTRIES: usize = 256;

/// 6-bit weight bounds.
const WEIGHT_MIN: i8 = -32;
const WEIGHT_MAX: i8 = 31;

/// Sampler associativity.
const SAMPLER_ASSOC: usize = 16;

/// Training threshold θ and decision thresholds τ (tuned on the workload
/// suite; the original paper's values are calibrated to its own traces).
const THETA: i32 = 45;
const TAU_BYPASS: i32 = 6;
const TAU_REPLACE: i32 = 80;

#[derive(Debug, Clone, Copy, Default)]
struct SamplerEntry {
    tag: u16,
    indices: [u16; FEATURES],
    confidence: i16,
    lru: u8,
    valid: bool,
}

/// The perceptron reuse predictor policy.
#[derive(Debug)]
pub struct PerceptronPolicy {
    /// All six weight tables flattened into one arena; feature `f`'s
    /// table starts at `f * TABLE_ENTRIES`, and the index vector carries
    /// precombined arena offsets.
    tables: Vec<i8>,
    sampler: Vec<[SamplerEntry; SAMPLER_ASSOC]>,
    sample_stride: u32,
    /// `(shift, mask)` when `sample_stride` is a power of two: replaces
    /// the division pair in the sampled-set check.
    sample_pow2: Option<(u32, u32)>,
    history: [u64; 4],
    dead_bits: Vec<bool>,
    lru: Lru,
    assoc: u32,
    last_confidence: i32,
    measure_only: bool,
}

#[inline]
fn fold8(x: u64) -> u16 {
    let mut v = x;
    let mut out = 0u64;
    while v != 0 {
        out ^= v & 0xff;
        v >>= 8;
    }
    out as u16
}

impl PerceptronPolicy {
    /// Creates the policy for `llc` with `sampler_sets` sampled sets (the
    /// paper grants Perceptron extra sampler sets to equalize hardware
    /// budgets, §4.4).
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
        PerceptronPolicy {
            // Padded like `mrp_core::tables::WeightTables` so the shared
            // AVX2 gather-sum kernel stays in bounds on every offset.
            tables: vec![0i8; FEATURES * TABLE_ENTRIES + GATHER_PAD],
            sampler: vec![[SamplerEntry::default(); SAMPLER_ASSOC]; sampler_sets as usize],
            sample_stride,
            sample_pow2: sample_stride
                .is_power_of_two()
                .then(|| (sample_stride.trailing_zeros(), sample_stride - 1)),
            history: [0; 4],
            dead_bits: vec![false; llc.sets() as usize * llc.associativity() as usize],
            lru: Lru::new(llc.sets(), llc.associativity()),
            assoc: llc.associativity(),
            last_confidence: 0,
            measure_only: false,
        }
    }

    /// Switches off the optimization while keeping prediction/training.
    pub fn set_measure_only(&mut self, measure_only: bool) {
        self.measure_only = measure_only;
    }

    /// Confidence of the most recent prediction.
    pub fn last_confidence(&self) -> i32 {
        self.last_confidence
    }

    /// Per-feature arena offsets (`f * TABLE_ENTRIES + index`) for an
    /// access — ready for direct gather/update against `tables`.
    fn indices(&self, pc: u64, block: u64) -> [u16; FEATURES] {
        let tag = block;
        let mut offsets = [
            fold8(pc >> 2),
            fold8(self.history[1]),
            fold8(self.history[2]),
            fold8(self.history[3]),
            fold8(tag >> 4) ^ fold8(pc) & 0xff,
            fold8(tag >> 7) ^ fold8(pc >> 5) & 0xff,
        ]
        .map(|i| i % TABLE_ENTRIES as u16);
        for (f, offset) in offsets.iter_mut().enumerate() {
            *offset += (f * TABLE_ENTRIES) as u16;
        }
        offsets
    }

    fn confidence(&self, indices: &[u16; FEATURES]) -> i32 {
        // Same batched gather-sum kernel as the multiperspective
        // predictor's confidence — the two i8 arenas share one hot path.
        simd::gather_sum_i8(&self.tables, indices, simd::level())
    }

    fn train(&mut self, indices: &[u16; FEATURES], stored_confidence: i32, dead: bool) {
        // Threshold training: update on misprediction or low confidence.
        let should = if dead {
            stored_confidence <= THETA
        } else {
            stored_confidence >= -THETA
        };
        if !should {
            return;
        }
        // One packed `(offset << 1) | sign` word per feature, applied
        // through the same saturating weight-update fold as the
        // multiperspective predictor's train path.
        let sign = u32::from(!dead);
        let events = indices.map(|i| (u32::from(i) << 1) | sign);
        apply_events_i8(&mut self.tables, &events, WEIGHT_MIN, WEIGHT_MAX);
    }

    fn sampler_access(&mut self, set: u32, block: u64, indices: [u16; FEATURES], confidence: i32) {
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
        let tag = fold8(block) | (fold8(block >> 8) << 8);
        let set_entries_len = self.sampler[sampler_set].len();

        if let Some(i) = (0..set_entries_len).find(|&i| {
            self.sampler[sampler_set][i].valid && self.sampler[sampler_set][i].tag == tag
        }) {
            // Reuse: train live with the stored feature indices.
            let entry = self.sampler[sampler_set][i];
            self.train(&entry.indices, i32::from(entry.confidence), false);
            let old_lru = entry.lru;
            for e in self.sampler[sampler_set].iter_mut() {
                if e.valid && e.lru < old_lru {
                    e.lru += 1;
                }
            }
            let e = &mut self.sampler[sampler_set][i];
            e.lru = 0;
            e.indices = indices;
            e.confidence = confidence.clamp(-256, 255) as i16;
            return;
        }

        // Miss: insert, evicting LRU and training it dead.
        if let Some(i) = (0..set_entries_len).find(|&i| !self.sampler[sampler_set][i].valid) {
            for e in self.sampler[sampler_set].iter_mut() {
                if e.valid {
                    e.lru += 1;
                }
            }
            self.sampler[sampler_set][i] = SamplerEntry {
                tag,
                indices,
                confidence: confidence.clamp(-256, 255) as i16,
                lru: 0,
                valid: true,
            };
            return;
        }
        let victim = (0..set_entries_len)
            .max_by_key(|&i| self.sampler[sampler_set][i].lru)
            .expect("sampler set nonempty");
        let evicted = self.sampler[sampler_set][victim];
        self.train(&evicted.indices, i32::from(evicted.confidence), true);
        for e in self.sampler[sampler_set].iter_mut() {
            e.lru = e.lru.saturating_add(1);
        }
        self.sampler[sampler_set][victim] = SamplerEntry {
            tag,
            indices,
            confidence: confidence.clamp(-256, 255) as i16,
            lru: 0,
            valid: true,
        };
    }

    fn predict(&mut self, info: &AccessInfo) -> i32 {
        let indices = self.indices(info.pc, info.block);
        let confidence = self.confidence(&indices);
        self.sampler_access(info.set, info.block, indices, confidence);
        self.last_confidence = confidence;
        confidence
    }

    #[inline]
    fn slot(&self, set: u32, way: u32) -> usize {
        set as usize * self.assoc as usize + way as usize
    }
}

impl ReplacementPolicy for PerceptronPolicy {
    fn name(&self) -> &str {
        "perceptron"
    }

    fn on_core_access(&mut self, access: &MemoryAccess) {
        self.history.rotate_right(1);
        self.history[0] = access.pc;
    }

    fn uses_core_accesses(&self) -> bool {
        true
    }

    fn on_hit(&mut self, info: &AccessInfo, way: u32) {
        let confidence = self.predict(info);
        let slot = self.slot(info.set, way);
        self.dead_bits[slot] = confidence > TAU_REPLACE && !self.measure_only;
        self.lru.on_hit(info, way);
    }

    fn should_bypass(&mut self, info: &AccessInfo) -> bool {
        let confidence = self.predict(info);
        confidence > TAU_BYPASS && !self.measure_only
    }

    fn choose_victim(&mut self, info: &AccessInfo, occupants: &[u64]) -> u32 {
        if !self.measure_only {
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
        // A block filled despite a moderately positive prediction keeps
        // its dead mark so replacement can reclaim it early.
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

    fn load(pc: u64, block: u64) -> MemoryAccess {
        MemoryAccess::load(pc, block * 64)
    }

    #[test]
    fn basic_hit_miss() {
        let c = llc();
        let mut cache = Cache::new(c, Box::new(PerceptronPolicy::new(&c, 16)));
        let a = load(0x400000, 3);
        assert!(cache.access(&a, false).is_miss());
        assert!(cache.access(&a, false).is_hit());
    }

    #[test]
    fn stream_learns_to_bypass() {
        let c = llc();
        let mut cache = Cache::new(c, Box::new(PerceptronPolicy::new(&c, 16)));
        let mut bypassed = false;
        for i in 0..300_000u64 {
            if cache.access(&load(0x400000, i), false) == AccessResult::Bypassed {
                bypassed = true;
            }
        }
        assert!(bypassed);
    }

    #[test]
    fn hot_set_is_retained() {
        let c = llc();
        let mut cache = Cache::new(c, Box::new(PerceptronPolicy::new(&c, 16)));
        let mut last_round_misses = 0;
        for round in 0..200u64 {
            let before = cache.stats().demand_misses;
            for b in 0..256u64 {
                let _ = cache.access(&load(0x500000, b), false);
            }
            last_round_misses = cache.stats().demand_misses - before;
            let _ = round;
        }
        assert_eq!(last_round_misses, 0, "resident hot set still missing");
    }

    #[test]
    fn measure_only_never_bypasses() {
        let c = llc();
        let mut p = PerceptronPolicy::new(&c, 16);
        p.set_measure_only(true);
        let mut cache = Cache::new(c, Box::new(p));
        for i in 0..100_000u64 {
            assert_ne!(
                cache.access(&load(0x400000, i), false),
                AccessResult::Bypassed
            );
        }
    }

    #[test]
    fn weights_stay_in_six_bit_range() {
        let c = llc();
        let mut p = PerceptronPolicy::new(&c, 8);
        let indices = p.indices(0x400000, 42);
        for _ in 0..200 {
            p.train(&indices, 0, true);
        }
        assert!(p.confidence(&indices) <= FEATURES as i32 * i32::from(WEIGHT_MAX));
        for _ in 0..500 {
            p.train(&indices, 0, false);
        }
        assert!(p.confidence(&indices) >= FEATURES as i32 * i32::from(WEIGHT_MIN));
    }
}
