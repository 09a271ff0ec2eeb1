//! The multiperspective reuse predictor.

use std::fmt;

use crate::context::FeatureContext;
use crate::feature::Feature;
use crate::plan::FeaturePlan;
use crate::sampler::{clamp_confidence, partial_tag, SampledSetFilter, Sampler, TrainingEvent};
use crate::tables::WeightTables;

/// Statistics about predictor activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Confidence computations performed.
    pub predictions: u64,
    /// Sampler accesses (accesses that mapped to a sampled set).
    pub sampler_accesses: u64,
    /// Sampler hits.
    pub sampler_hits: u64,
    /// Individual weight updates applied.
    pub weight_updates: u64,
}

/// The paper's predictor: a set of parameterized features, one hashed
/// weight table per feature, and a sampler that trains the tables with
/// per-feature associativity semantics.
///
/// The predictor is policy-agnostic: [`crate::mpppb::Mpppb`] drives it for
/// cache management, while experiments can also query it in measure-only
/// mode for ROC analysis.
pub struct MultiperspectivePredictor {
    features: Vec<Feature>,
    /// The feature set lowered to straight-line arena-offset programs.
    plan: FeaturePlan,
    tables: WeightTables,
    sampler: Sampler,
    /// LLC sets between consecutive sampled sets.
    sample_stride: u32,
    /// `(shift, mask)` when `sample_stride` is a power of two (the common
    /// configuration): turns the quotient computation on the sampled path
    /// into a shift.
    sample_pow2: Option<(u32, u32)>,
    /// One bit per LLC set: the O(1) membership test every access takes
    /// before any train-stage work.
    set_filter: SampledSetFilter,
    stats: PredictorStats,
    events_buf: Vec<TrainingEvent>,
    indices_buf: Vec<u16>,
}

impl fmt::Debug for MultiperspectivePredictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiperspectivePredictor")
            .field("features", &self.features.len())
            .field("sampled_sets", &self.sampler.sets())
            .field("stats", &self.stats)
            .finish()
    }
}

impl MultiperspectivePredictor {
    /// Creates the predictor.
    ///
    /// * `features` — the parameterized feature set (16 in the paper).
    /// * `llc_sets` — number of sets in the cache being managed.
    /// * `sampler_sets` — number of sampled sets (64/core in the paper).
    /// * `theta` — perceptron training threshold.
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty or `sampler_sets` is 0 or exceeds
    /// `llc_sets`.
    pub fn new(features: Vec<Feature>, llc_sets: u32, sampler_sets: u32, theta: i32) -> Self {
        assert!(!features.is_empty(), "need at least one feature");
        assert!(
            sampler_sets > 0 && sampler_sets <= llc_sets,
            "sampler sets out of range"
        );
        let tables = WeightTables::new(&features);
        let plan = FeaturePlan::new(&features);
        debug_assert_eq!(
            plan.arena_len(),
            tables.arena_len(),
            "plan/arena layout drift"
        );
        let assocs: Vec<u8> = features.iter().map(|f| f.assoc).collect();
        let sample_stride = (llc_sets / sampler_sets).max(1);
        let sample_pow2 = sample_stride
            .is_power_of_two()
            .then(|| (sample_stride.trailing_zeros(), sample_stride - 1));
        MultiperspectivePredictor {
            features,
            plan,
            tables,
            sampler: Sampler::new(sampler_sets, assocs, theta),
            sample_stride,
            sample_pow2,
            set_filter: SampledSetFilter::new(llc_sets, sample_stride, sampler_sets),
            stats: PredictorStats::default(),
            events_buf: Vec::with_capacity(64),
            indices_buf: Vec::with_capacity(16),
        }
    }

    /// The feature set.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Activity counters.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// The sampler set `llc_set` maps to, if it is a sampled set. The
    /// fast path is one bit test in [`SampledSetFilter`]; the quotient is
    /// only computed for the rare sampled access.
    #[inline]
    fn sampler_set(&self, llc_set: u32) -> Option<u32> {
        if !self.set_filter.contains(llc_set) {
            return None;
        }
        Some(match self.sample_pow2 {
            Some((shift, _)) => llc_set >> shift,
            None => llc_set / self.sample_stride,
        })
    }

    /// Whether `llc_set` is a sampled set.
    #[inline]
    pub fn is_sampled(&self, llc_set: u32) -> bool {
        self.set_filter.contains(llc_set)
    }

    /// Fused predict + train for one access: one
    /// [`FeaturePlan::predict`] computes the arena offsets and sums the
    /// confidence in the same lane pass, and the sampler trains from the
    /// *same* offset vector. Returns the confidence; the offsets stay
    /// readable through [`Self::last_offsets`].
    pub fn access(&mut self, ctx: &FeatureContext<'_>, llc_set: u32, block: u64) -> i32 {
        let mut offsets = std::mem::take(&mut self.indices_buf);
        self.stats.predictions += 1;
        let confidence = self
            .plan
            .predict(ctx, &mut offsets, self.tables.padded_arena());
        self.train(llc_set, block, &offsets, confidence);
        self.indices_buf = offsets;
        confidence
    }

    /// The arena offsets the last [`Self::access`] computed (empty
    /// before the first), for verification.
    pub fn last_offsets(&self) -> &[u16] {
        &self.indices_buf
    }

    /// Presents an access to the sampler if its set is sampled, applying
    /// any resulting training to the weight tables. `confidence` must be
    /// the value just computed from `indices`.
    ///
    /// The sampler appends packed SoA event words —
    /// `(arena_offset << 1) | sign` in the low bits, since it stores and
    /// replays the precombined arena offsets it was given — straight
    /// into the reused flat buffer, and one
    /// [`WeightTables::apply_events`] fold applies them (at most one
    /// event per feature); no per-event enum dispatch, and no buffer
    /// take/restore round-trip (the SoA buffer and the sampler are
    /// disjoint fields).
    pub fn train(&mut self, llc_set: u32, block: u64, indices: &[u16], confidence: i32) {
        let Some(sampler_set) = self.sampler_set(llc_set) else {
            return;
        };
        self.stats.sampler_accesses += 1;
        self.events_buf.clear();
        let outcome = self.sampler.access(
            sampler_set,
            partial_tag(block),
            indices,
            clamp_confidence(confidence),
            &mut self.events_buf,
        );
        if outcome.hit {
            self.stats.sampler_hits += 1;
        }
        self.stats.weight_updates += self.events_buf.len() as u64;
        self.tables.apply_events(&self.events_buf);
    }

    /// Direct table access for white-box tests and ablations.
    pub fn tables(&self) -> &WeightTables {
        &self.tables
    }

    /// The sampler (for invariant checks and white-box tests).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::FeatureKind;

    fn predictor() -> MultiperspectivePredictor {
        let features = vec![
            Feature::new(4, FeatureKind::Bias, true), // PC-indexed
            Feature::new(2, FeatureKind::Insert, false),
        ];
        MultiperspectivePredictor::new(features, 2048, 64, 100)
    }

    fn ctx(pc: u64, insert: bool) -> FeatureContext<'static> {
        FeatureContext {
            pc,
            address: pc << 6,
            pc_history: &[],
            is_mru: false,
            is_insert: insert,
            last_miss: false,
        }
    }

    #[test]
    fn sampled_sets_are_evenly_spread() {
        let p = predictor();
        let sampled: Vec<u32> = (0..2048).filter(|&s| p.is_sampled(s)).collect();
        assert_eq!(sampled.len(), 64);
        assert_eq!(sampled[0], 0);
        assert_eq!(sampled[1], 32);
    }

    /// The confidence the tables now assign to `p`'s last access.
    fn last_confidence(p: &MultiperspectivePredictor) -> i32 {
        p.tables().confidence(p.last_offsets())
    }

    #[test]
    fn untrained_confidence_is_zero() {
        let mut p = predictor();
        assert_eq!(p.access(&ctx(0x400000, false), 3, 0), 0);
    }

    #[test]
    fn dead_blocks_drive_confidence_positive() {
        let mut p = predictor();
        // Stream distinct blocks through one sampled set with the same PC:
        // every insertion demotes previous blocks past feature assocs.
        for i in 0..200u64 {
            p.access(&ctx(0x400000, true), 0, i * 2048);
        }
        let c = last_confidence(&p);
        assert!(c > 10, "streaming PC should look dead: {c}");
    }

    #[test]
    fn reused_blocks_drive_confidence_negative() {
        let mut p = predictor();
        // Alternate between two blocks: both are constantly reused at
        // positions 0/1, inside every feature's associativity.
        for i in 0..200u64 {
            p.access(&ctx(0x500000, false), 0, i % 2);
        }
        let c = last_confidence(&p);
        assert!(c < -10, "reused PC should look live: {c}");
    }

    #[test]
    fn non_sampled_sets_never_train() {
        let mut p = predictor();
        for i in 0..100u64 {
            p.access(&ctx(0x400000, true), 3, i); // set 3 is not sampled
        }
        assert_eq!(p.stats().sampler_accesses, 0);
        assert_eq!(last_confidence(&p), 0);
    }

    #[test]
    fn stats_track_activity() {
        let mut p = predictor();
        p.access(&ctx(1, true), 0, 99);
        p.access(&ctx(1, true), 0, 99);
        let s = p.stats();
        assert_eq!(s.predictions, 2);
        assert_eq!(s.sampler_accesses, 2);
        assert_eq!(s.sampler_hits, 1);
    }

    #[test]
    fn fused_access_matches_unfused_sequence() {
        // `access` against the reference API: `compute_offsets`, the
        // tables' gather-sum and a separate `train`.
        let mut fused = predictor();
        let mut unfused = predictor();
        let plan = FeaturePlan::new(unfused.features());
        let mut idx = Vec::new();
        for i in 0..300u64 {
            let c = ctx(0x400000 + (i % 5) * 4, i % 3 == 0);
            let set = (i % 3) as u32 * 32; // sampled and unsampled sets
            let block = i.wrapping_mul(0x9e37_79b9);
            plan.compute_offsets(&c, &mut idx);
            let conf_unfused = unfused.tables().confidence(&idx);
            unfused.train(set, block, &idx, conf_unfused);
            let conf_fused = fused.access(&c, set, block);
            assert_eq!(conf_fused, conf_unfused, "access {i}");
            assert_eq!(fused.last_offsets(), &idx[..], "access {i}");
        }
        let expected = PredictorStats {
            predictions: 300,
            ..unfused.stats()
        };
        assert_eq!(fused.stats(), expected);
    }

    #[test]
    #[should_panic(expected = "sampler sets out of range")]
    fn rejects_oversized_sampler() {
        let _ = MultiperspectivePredictor::new(
            vec![Feature::new(4, FeatureKind::Bias, false)],
            64,
            128,
            30,
        );
    }
}
