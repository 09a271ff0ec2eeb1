//! Hashed-perceptron weight tables.
//!
//! All per-feature tables live in one contiguous `Vec<i8>` arena with
//! per-feature base offsets (cumulative table sizes, in feature order —
//! the same layout [`crate::plan::FeaturePlan`] bakes into its compiled
//! features). The hot path addresses weights by precombined arena offset:
//! [`crate::plan::FeaturePlan::predict`] gathers straight from
//! [`WeightTables::padded_arena`] in its lane pass, and
//! [`WeightTables::confidence`] is the standalone gather-sum over given
//! offsets; the `(table, index)` API remains for tests, ablations, and
//! storage accounting.

use crate::feature::Feature;
use crate::simd::{self, SimdLevel, GATHER_PAD};

/// Weight bounds: "We find that 6 bit weights ranging from -32 to +31
/// provide a good trade-off between accuracy and area" (§3.4).
pub const WEIGHT_MIN: i8 = -32;

/// Upper weight bound (inclusive).
pub const WEIGHT_MAX: i8 = 31;

/// Width of one modeled weight: [`WEIGHT_MIN`]..=[`WEIGHT_MAX`] is the
/// signed 6-bit range.
pub const WEIGHT_BITS: u32 = 6;

/// One saturating weight table per feature, flattened into a single arena.
///
/// The backing vector is allocated [`GATHER_PAD`] entries past the
/// logical arena so the AVX2 and AVX-512 gathers (which read 4 bytes per
/// selected weight and keep the low byte) stay in bounds for every
/// in-arena offset, the last one included; the pad entries are never
/// addressed by any offset and stay zero.
#[derive(Debug, Clone)]
pub struct WeightTables {
    weights: Vec<i8>,
    /// Logical arena length (`weights.len() - GATHER_PAD`).
    arena: usize,
    /// Arena start of each table, plus a final sentinel (= arena length).
    bases: Vec<u32>,
}

/// Applies a packed training-event buffer to an i8 weight arena: events
/// in buffer order, each a saturating ±1 clamped to `[min, max]`. An
/// event is `(index << 1) | sign` in its low 17 bits (sign 1 =
/// decrement toward "live"); the feature bits above are ignored. The one
/// weight-update path shared by [`WeightTables`] and the perceptron and
/// SDBP baselines.
///
/// Order matters only at a saturation bound (`max, +1, -1` ends at
/// `max - 1` but `max, -1, +1` at `max`), and only when one buffer
/// touches an offset twice — which a single sampler access never does
/// (see [`crate::sampler::Sampler::access`]).
#[inline]
pub fn apply_events_i8(weights: &mut [i8], events: &[u32], min: i8, max: i8) {
    for &e in events {
        let w = &mut weights[(e >> 1) as usize & 0xffff];
        *w = if e & 1 == 1 {
            (*w).saturating_sub(1).max(min)
        } else {
            (*w).saturating_add(1).min(max)
        };
    }
}

impl WeightTables {
    /// Allocates zeroed tables sized by each feature's
    /// [`Feature::table_size`], with the paper's 6-bit weight range
    /// ([`WEIGHT_MIN`]..=[`WEIGHT_MAX`]).
    pub fn new(features: &[Feature]) -> Self {
        let mut bases = Vec::with_capacity(features.len() + 1);
        let mut total = 0u32;
        for f in features {
            bases.push(total);
            total += f.table_size() as u32;
        }
        bases.push(total);
        assert!(
            total as usize <= usize::from(u16::MAX) + 1,
            "weight arena exceeds u16 offsets"
        );
        WeightTables {
            weights: vec![0i8; total as usize + GATHER_PAD],
            arena: total as usize,
            bases,
        }
    }

    /// Number of tables (= number of features).
    pub fn len(&self) -> usize {
        self.bases.len() - 1
    }

    /// Whether there are no tables.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arena offset where `table` starts.
    pub fn base(&self, table: usize) -> usize {
        self.bases[table] as usize
    }

    /// Total arena entries across all tables (excluding the gather pad).
    pub fn arena_len(&self) -> usize {
        self.arena
    }

    /// The whole backing arena, [`GATHER_PAD`] zero entries included:
    /// what [`crate::plan::FeaturePlan::predict`] gathers from.
    pub fn padded_arena(&self) -> &[i8] {
        &self.weights
    }

    /// Reads the weight selected by `index` in `table`.
    pub fn weight(&self, table: usize, index: u16) -> i8 {
        let offset = self.bases[table] as usize + usize::from(index);
        debug_assert!(
            offset < self.bases[table + 1] as usize,
            "index beyond table"
        );
        self.weights[offset]
    }

    /// Sums the weights selected by `offsets` (one precombined arena
    /// offset per table, as emitted by
    /// [`crate::plan::FeaturePlan::compute_offsets`]) — the predictor's
    /// confidence value, via the per-call-checked
    /// [`crate::simd::gather_sum_i8`] at [`crate::simd::level`]. The
    /// reference and introspection form: the predictor's per-access path
    /// sums in [`crate::plan::FeaturePlan::predict`] instead.
    #[inline]
    pub fn confidence(&self, offsets: &[u16]) -> i32 {
        self.confidence_with(simd::level(), offsets)
    }

    /// [`Self::confidence`] with an explicit kernel level, for the
    /// kernel-equivalence sweeps in `mrp-verify` and the benches.
    #[inline]
    pub fn confidence_with(&self, level: SimdLevel, offsets: &[u16]) -> i32 {
        debug_assert_eq!(offsets.len(), self.len(), "index vector arity");
        debug_assert!(
            offsets.iter().all(|&o| usize::from(o) < self.arena),
            "offset beyond arena"
        );
        simd::gather_sum_i8(&self.weights, offsets, level)
    }

    /// Saturating increment of the weight at a precombined arena offset.
    #[inline]
    pub fn increment_at(&mut self, offset: u16) {
        debug_assert!(usize::from(offset) < self.arena, "offset beyond arena");
        let w = &mut self.weights[usize::from(offset)];
        *w = (*w).saturating_add(1).min(WEIGHT_MAX);
        debug_assert!(*w >= WEIGHT_MIN && *w <= WEIGHT_MAX);
    }

    /// Saturating decrement of the weight at a precombined arena offset.
    #[inline]
    pub fn decrement_at(&mut self, offset: u16) {
        debug_assert!(usize::from(offset) < self.arena, "offset beyond arena");
        let w = &mut self.weights[usize::from(offset)];
        *w = (*w).saturating_sub(1).max(WEIGHT_MIN);
        debug_assert!(*w >= WEIGHT_MIN && *w <= WEIGHT_MAX);
    }

    /// Applies a packed SoA training-event buffer (words of
    /// `(arena_offset << 1) | sign` in the low 17 bits, as emitted by
    /// [`crate::sampler::Sampler::access`] when fed precombined arena
    /// offsets) through [`apply_events_i8`] — the same saturating
    /// semantics as a sequential
    /// [`Self::increment_at`]/[`Self::decrement_at`] fold.
    #[inline]
    pub fn apply_events(&mut self, events: &[u32]) {
        debug_assert!(
            events
                .iter()
                .all(|&e| ((e >> 1) as usize & 0xffff) < self.arena),
            "event offset beyond arena"
        );
        apply_events_i8(&mut self.weights, events, WEIGHT_MIN, WEIGHT_MAX);
    }

    /// Total storage in bits (for the overhead accounting test against the
    /// paper's §4.4 numbers). Counts the logical arena only — the gather
    /// pad is an implementation artifact, not modeled hardware.
    pub fn storage_bits(&self) -> u64 {
        self.arena as u64 * u64::from(WEIGHT_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureKind;

    fn features() -> Vec<Feature> {
        vec![
            Feature::new(16, FeatureKind::Bias, false),
            Feature::new(6, FeatureKind::Burst, false),
            Feature::new(
                10,
                FeatureKind::Pc {
                    begin: 1,
                    end: 53,
                    which: 10,
                },
                false,
            ),
        ]
    }

    /// The precombined arena offset of `index` in `table`.
    fn at(t: &WeightTables, table: usize, index: usize) -> u16 {
        (t.base(table) + index) as u16
    }

    /// Precombined arena offsets for per-table indices.
    fn offsets(t: &WeightTables, indices: &[u16]) -> Vec<u16> {
        indices
            .iter()
            .enumerate()
            .map(|(table, &i)| at(t, table, usize::from(i)))
            .collect()
    }

    #[test]
    fn tables_are_sized_per_feature() {
        let t = WeightTables::new(&features());
        assert_eq!(t.len(), 3);
        assert_eq!(t.weight(0, 0), 0);
        assert_eq!(t.confidence(&offsets(&t, &[0, 0, 0])), 0);
    }

    #[test]
    fn arena_bases_are_cumulative_table_sizes() {
        let t = WeightTables::new(&features());
        // bias: 1 entry, burst: 2, pc: 256.
        assert_eq!(t.base(0), 0);
        assert_eq!(t.base(1), 1);
        assert_eq!(t.base(2), 3);
        assert_eq!(t.arena_len(), 259);
    }

    #[test]
    fn confidence_sums_selected_weights() {
        let mut t = WeightTables::new(&features());
        t.increment_at(at(&t, 0, 0));
        t.increment_at(at(&t, 1, 1));
        t.increment_at(at(&t, 1, 1));
        t.decrement_at(at(&t, 2, 100));
        assert_eq!(t.confidence(&offsets(&t, &[0, 1, 100])), 1 + 2 - 1);
        assert_eq!(t.confidence(&offsets(&t, &[0, 0, 100])), 1 - 1);
    }

    #[test]
    fn arena_offset_updates_match_table_updates() {
        let mut t = WeightTables::new(&features());
        t.increment_at(at(&t, 2, 100));
        assert_eq!(t.weight(2, 100), 1);
        t.decrement_at(at(&t, 2, 100));
        assert_eq!(t.weight(2, 100), 0);
    }

    #[test]
    fn weights_saturate_at_six_bit_bounds() {
        let mut t = WeightTables::new(&features());
        for _ in 0..100 {
            t.increment_at(at(&t, 0, 0));
            t.decrement_at(at(&t, 1, 0));
        }
        assert_eq!(t.weight(0, 0), WEIGHT_MAX);
        assert_eq!(t.weight(1, 0), WEIGHT_MIN);
    }

    #[test]
    fn applied_events_saturate_at_six_bit_bounds() {
        use crate::sampler::{event_decrement, event_increment};
        let mut t = WeightTables::new(&features());
        let (up, down) = (at(&t, 0, 0), at(&t, 1, 0));
        let events: Vec<u32> = (0..100)
            .flat_map(|_| [event_increment(0, up), event_decrement(1, down)])
            .collect();
        t.apply_events(&events);
        assert_eq!((t.weight(0, 0), t.weight(1, 0)), (31, -32));
        assert_eq!((WEIGHT_MIN, WEIGHT_MAX), (-32, 31));
    }

    #[test]
    fn storage_accounting() {
        let t = WeightTables::new(&features());
        // bias: 1 entry, burst: 2, pc: 256 => 259 weights x 6 bits.
        assert_eq!(t.storage_bits(), 259 * 6);
        assert_eq!(
            1i32 << WEIGHT_BITS,
            i32::from(WEIGHT_MAX) - i32::from(WEIGHT_MIN) + 1
        );
        // The gather pad is excluded from the modeled arena.
        assert_eq!(t.arena_len(), 259);
    }

    #[test]
    fn apply_events_matches_sequential_updates() {
        use crate::sampler::{event_decrement, event_increment};
        let mut applied = WeightTables::new(&features());
        let mut sequential = WeightTables::new(&features());
        // A long buffer with duplicate offsets and mixed signs; feature
        // ids are irrelevant to the apply.
        let events: Vec<u32> = (0..300u32)
            .map(|i| {
                let offset = (i * 13 % 259) as u16;
                if i % 3 == 0 {
                    event_decrement(0, offset)
                } else {
                    event_increment(0, offset)
                }
            })
            .collect();
        for &e in &events {
            let offset = crate::sampler::event_index(e);
            if crate::sampler::event_is_decrement(e) {
                sequential.decrement_at(offset);
            } else {
                sequential.increment_at(offset);
            }
        }
        applied.apply_events(&events);
        assert_eq!(applied.weights, sequential.weights);
    }

    /// Packs `(offset << 1) | sign` the way the sampler emits events
    /// (feature bits don't matter to the apply).
    fn ev(offset: u16, decrement: bool) -> u32 {
        (u32::from(offset) << 1) | u32::from(decrement)
    }

    #[test]
    fn mixed_sign_duplicates_replay_in_event_order() {
        // At the saturation bound, `inc, dec` ends one below the bound
        // while `dec, inc` ends at it: the fold is order-dependent there,
        // so net coalescing (net 0 => unchanged) would get both wrong.
        let (min, max) = (-32i8, 31i8);
        let mut weights = vec![0i8; 64];
        weights[0] = max;
        weights[1] = max;
        let events = [ev(0, false), ev(0, true), ev(1, true), ev(1, false)];
        apply_events_i8(&mut weights, &events, min, max);
        assert_eq!(weights[0], max - 1);
        assert_eq!(weights[1], max);
    }

    #[test]
    fn apply_saturates_at_pinned_bounds() {
        let (min, max) = (-32i8, 31i8);
        let mut weights = vec![0i8; 32];
        weights[3] = max;
        weights[4] = min;
        // 20 increments at a pinned max, 20 decrements at a pinned min.
        let mut events: Vec<u32> = (0..20).map(|_| ev(3, false)).collect();
        events.extend((0..20).map(|_| ev(4, true)));
        apply_events_i8(&mut weights, &events, min, max);
        assert_eq!(weights[3], max);
        assert_eq!(weights[4], min);
    }

    #[test]
    fn confidence_levels_agree() {
        let mut t = WeightTables::new(&features());
        // Weights spread across the arena, including the last entry.
        for o in 0..t.arena_len() as u16 {
            for _ in 0..(o % 67) {
                if o % 2 == 0 {
                    t.increment_at(o);
                } else {
                    t.decrement_at(o);
                }
            }
        }
        let last = (t.arena_len() - 1) as u16;
        let offsets = vec![0u16, 2, last];
        let expected = t.confidence_with(crate::simd::SimdLevel::Scalar, &offsets);
        for &l in crate::simd::available_levels() {
            assert_eq!(t.confidence_with(l, &offsets), expected, "{l:?}");
        }
    }
}
