//! The 18-way LRU sampler with per-feature associativity training.
//!
//! A small number of cache sets are sampled; each has a corresponding
//! sampler set holding partial tags, the last-computed confidence, the
//! vector of prediction-table indices used for that confidence, and an LRU
//! stack position (§3.3). Unlike prior work, *evictions from the sampler
//! have no special significance*: each feature has its own maximum recency
//! position `A`, and a block is trained dead for feature `i` at the moment
//! it is demoted to position `A_i` (§3.8).
//!
//! Training output is a flat SoA buffer of packed [`TrainingEvent`] words
//! — `(feature << 17) | (index << 1) | sign` — appended directly by
//! [`Sampler::access`]. The low 17 bits are exactly what the weight-update
//! fold consumes (`(arena_offset << 1) | sign` when the caller stores
//! precombined arena offsets, as the optimized predictor does); the
//! feature id rides in the high bits for consumers that address per-table
//! weights instead (the verification reference model) and for tests.
//!
//! Set storage is structure-of-arrays: parallel tag / confidence / index
//! slabs in physical recency order (element 0 of a set is MRU), rotated
//! with `copy_within` on promotion. The per-position × per-feature
//! demotion scans are replaced by two precomputed feature lists: features
//! with `A == p` (fired when a block is demoted *to* position `p`) and
//! features with `A > p` (fired on a reuse *at* position `p`), so an
//! access only touches the features that can actually train.

/// Sampler associativity: "Each set in the sampler has 18 ways" (§3.3).
pub const SAMPLER_ASSOC: usize = 18;

/// Bits kept per partial tag (§3.3: 16 bits balances aliasing vs. area).
pub const PARTIAL_TAG_BITS: u32 = 16;

/// Confidence values are stored as 9-bit signed integers (§3.3).
pub const CONFIDENCE_MIN: i32 = -256;

/// Upper bound of the stored 9-bit confidence.
pub const CONFIDENCE_MAX: i32 = 255;

/// Computes the 16-bit partial tag for a block address.
#[inline]
pub fn partial_tag(block: u64) -> u16 {
    let folded = block ^ (block >> 16) ^ (block >> 32) ^ (block >> 48);
    (folded & 0xffff) as u16
}

/// Clamps a raw confidence sum into the stored 9-bit range.
#[inline]
pub fn clamp_confidence(sum: i32) -> i16 {
    sum.clamp(CONFIDENCE_MIN, CONFIDENCE_MAX) as i16
}

/// One table update requested by a sampler access, packed into a single
/// word: bit 0 is the sign (1 = decrement toward "live", 0 = increment
/// toward "dead"), bits 1..17 are the stored table index, and bits 17+
/// carry the feature id. `(word & 0x1ffff)` is therefore the
/// `(index << 1) | sign` form [`crate::tables::apply_events_i8`] consumes
/// directly when indices are precombined arena offsets.
pub type TrainingEvent = u32;

/// Bit position where the feature id starts in a [`TrainingEvent`].
pub const EVENT_FEATURE_SHIFT: u32 = 17;

/// Packs an increment-toward-dead event (the block was demoted to the
/// feature's `A` position — an eviction from that feature's perspective).
#[inline]
pub fn event_increment(feature: u16, index: u16) -> TrainingEvent {
    (u32::from(feature) << EVENT_FEATURE_SHIFT) | (u32::from(index) << 1)
}

/// Packs a decrement-toward-live event (the block was reused within the
/// feature's associativity).
#[inline]
pub fn event_decrement(feature: u16, index: u16) -> TrainingEvent {
    event_increment(feature, index) | 1
}

/// The stored table index (a precombined arena offset in the optimized
/// predictor) of a packed event.
#[inline]
pub fn event_index(event: TrainingEvent) -> u16 {
    ((event >> 1) & 0xffff) as u16
}

/// The feature id of a packed event.
#[inline]
pub fn event_feature(event: TrainingEvent) -> u16 {
    (event >> EVENT_FEATURE_SHIFT) as u16
}

/// Whether a packed event decrements (trains toward "live").
#[inline]
pub fn event_is_decrement(event: TrainingEvent) -> bool {
    event & 1 == 1
}

/// Outcome summary of one sampler access (for tests and statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerAccess {
    /// Whether the tag hit in the sampler set.
    pub hit: bool,
    /// Stack position of the hit (0 = MRU), if any.
    pub hit_position: Option<u32>,
}

/// The sampler structure: `sets` independent 18-way LRU-ordered sets in
/// SoA form. `tags`/`confidences` are `sets * SAMPLER_ASSOC` slabs and
/// `indices` is `sets * SAMPLER_ASSOC * arity`; within a set, physical
/// order is recency order (element 0 is MRU) and `occupancy` bounds the
/// live prefix.
#[derive(Debug)]
pub struct Sampler {
    tags: Box<[u16]>,
    confidences: Box<[i16]>,
    indices: Box<[u16]>,
    occupancy: Box<[u8]>,
    arity: usize,
    theta: i32,
    /// CSR list of features with `A == p`, for `p` in `1..=SAMPLER_ASSOC`
    /// (ascending feature order within a position): the features trained
    /// dead when a block is demoted to position `p`.
    eq_starts: [u16; SAMPLER_ASSOC + 2],
    eq_features: Vec<u16>,
    /// Positions `p` with a non-empty `eq` list, ascending — the demotion
    /// loops only visit these instead of every occupied position.
    eq_positions: Vec<u8>,
    /// CSR list of features with `A > p`, for `p` in `0..SAMPLER_ASSOC`
    /// (ascending feature order): the features trained live on a reuse at
    /// position `p`.
    gt_starts: [u16; SAMPLER_ASSOC + 1],
    gt_features: Vec<u16>,
}

impl Sampler {
    /// Creates a sampler with `sets` sampled sets, the per-feature
    /// associativity parameters, and training threshold `theta` (weights
    /// are only updated when the stored confidence was wrong or within
    /// `theta` of the decision boundary — perceptron threshold training).
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0` or any associativity is outside `1..=18`.
    pub fn new(sets: u32, feature_assocs: Vec<u8>, theta: i32) -> Self {
        assert!(sets > 0, "need at least one sampled set");
        assert!(
            feature_assocs
                .iter()
                .all(|&a| (1..=SAMPLER_ASSOC as u8).contains(&a)),
            "feature associativity out of range"
        );
        let arity = feature_assocs.len();
        let ways = sets as usize * SAMPLER_ASSOC;

        let mut eq_starts = [0u16; SAMPLER_ASSOC + 2];
        let mut eq_features = Vec::with_capacity(arity);
        let mut eq_positions = Vec::new();
        for (p, start) in eq_starts.iter_mut().enumerate().skip(1).take(SAMPLER_ASSOC) {
            *start = eq_features.len() as u16;
            for (f, &a) in feature_assocs.iter().enumerate() {
                if usize::from(a) == p {
                    eq_features.push(f as u16);
                }
            }
            if eq_features.len() as u16 != *start {
                eq_positions.push(p as u8);
            }
        }
        eq_starts[SAMPLER_ASSOC + 1] = eq_features.len() as u16;

        let mut gt_starts = [0u16; SAMPLER_ASSOC + 1];
        let mut gt_features = Vec::new();
        for (p, start) in gt_starts.iter_mut().enumerate().take(SAMPLER_ASSOC) {
            *start = gt_features.len() as u16;
            for (f, &a) in feature_assocs.iter().enumerate() {
                if usize::from(a) > p {
                    gt_features.push(f as u16);
                }
            }
        }
        gt_starts[SAMPLER_ASSOC] = gt_features.len() as u16;

        Sampler {
            tags: vec![0u16; ways].into_boxed_slice(),
            confidences: vec![0i16; ways].into_boxed_slice(),
            indices: vec![0u16; ways * arity].into_boxed_slice(),
            occupancy: vec![0u8; sets as usize].into_boxed_slice(),
            arity,
            theta,
            eq_starts,
            eq_features,
            eq_positions,
            gt_starts,
            gt_features,
        }
    }

    /// Number of sampled sets.
    pub fn sets(&self) -> u32 {
        self.occupancy.len() as u32
    }

    /// Features trained dead by a demotion to position `p`.
    #[inline]
    fn eq_list(&self, p: usize) -> &[u16] {
        &self.eq_features[usize::from(self.eq_starts[p])..usize::from(self.eq_starts[p + 1])]
    }

    /// Features trained live by a reuse at position `p`.
    #[inline]
    fn gt_list(&self, p: usize) -> &[u16] {
        &self.gt_features[usize::from(self.gt_starts[p])..usize::from(self.gt_starts[p + 1])]
    }

    /// Simulates the sampler's response to an access: `tag` hit/placed in
    /// `set`, carrying the just-computed `indices` and `confidence`.
    /// Appends the (already threshold-gated) training events to `events`
    /// as packed words — the caller owns clearing — and returns a hit
    /// summary.
    ///
    /// Demotion semantics: on a hit at position `p`, blocks above `p`
    /// demote by one; on a miss every block demotes by one and the
    /// position-17 block (if any) falls off the end — a demotion *to*
    /// position 18, which trains features with `A = 18`.
    ///
    /// Each call emits at most one event per feature (a feature trains
    /// live on a reuse at `p < A` or dead on a demotion to exactly `A`,
    /// never both), so one buffer touches each feature's table at most
    /// once.
    pub fn access(
        &mut self,
        set: u32,
        tag: u16,
        indices: &[u16],
        confidence: i16,
        events: &mut Vec<TrainingEvent>,
    ) -> SamplerAccess {
        assert_eq!(indices.len(), self.arity, "index vector arity mismatch");
        let theta = self.theta;
        let occ = usize::from(self.occupancy[set as usize]);
        let base = set as usize * SAMPLER_ASSOC;
        let set_tags = &self.tags[base..base + occ];
        let hit_position = set_tags.iter().position(|&t| t == tag);

        match hit_position {
            Some(p) => {
                // Round 1: train the reused block. For each feature with
                // p < A the reuse is a hit at associativity A; gate on the
                // *stored* confidence (mispredicted dead, or within theta).
                let way = base + p;
                if i32::from(self.confidences[way]) >= -theta {
                    let stored = way * self.arity;
                    for &f in self.gt_list(p) {
                        events.push(event_decrement(f, self.indices[stored + usize::from(f)]));
                    }
                }
                // Round 2: the promotion of `p` demotes blocks 0..p by
                // one; a block moving from q to q+1 == A is an eviction
                // for that feature.
                for &np in &self.eq_positions {
                    let np = usize::from(np);
                    if np > p {
                        break;
                    }
                    let q = np - 1;
                    if i32::from(self.confidences[base + q]) <= theta {
                        let stored = (base + q) * self.arity;
                        for &f in self.eq_list(np) {
                            events.push(event_increment(f, self.indices[stored + usize::from(f)]));
                        }
                    }
                }
                // Rotate positions 0..p down by one and install the
                // updated entry at MRU.
                self.tags.copy_within(base..base + p, base + 1);
                self.tags[base] = tag;
                self.confidences.copy_within(base..base + p, base + 1);
                self.confidences[base] = confidence;
                let ibase = base * self.arity;
                self.indices
                    .copy_within(ibase..ibase + p * self.arity, ibase + self.arity);
                self.indices[ibase..ibase + self.arity].copy_from_slice(indices);
                SamplerAccess {
                    hit: true,
                    hit_position: Some(p as u32),
                }
            }
            None => {
                // Every resident block demotes by one position.
                for &np in &self.eq_positions {
                    let np = usize::from(np);
                    if np > occ {
                        break;
                    }
                    let q = np - 1;
                    if i32::from(self.confidences[base + q]) <= theta {
                        let stored = (base + q) * self.arity;
                        for &f in self.eq_list(np) {
                            events.push(event_increment(f, self.indices[stored + usize::from(f)]));
                        }
                    }
                }
                // A full set drops its LRU block (it just trained as a
                // demotion to position 18 above); everything else shifts
                // down one and the new block lands at MRU.
                let keep = occ.min(SAMPLER_ASSOC - 1);
                self.tags.copy_within(base..base + keep, base + 1);
                self.tags[base] = tag;
                self.confidences.copy_within(base..base + keep, base + 1);
                self.confidences[base] = confidence;
                let ibase = base * self.arity;
                self.indices
                    .copy_within(ibase..ibase + keep * self.arity, ibase + self.arity);
                self.indices[ibase..ibase + self.arity].copy_from_slice(indices);
                self.occupancy[set as usize] = (keep + 1) as u8;
                SamplerAccess {
                    hit: false,
                    hit_position: None,
                }
            }
        }
    }

    /// Occupancy of a sampler set (tests).
    pub fn set_len(&self, set: u32) -> usize {
        usize::from(self.occupancy[set as usize])
    }

    /// Structural invariants: every set within [`SAMPLER_ASSOC`], unique
    /// partial tags within a set's live prefix, and the SoA slabs sized
    /// for the feature arity. Returns `Err(detail)` on the first
    /// violation so verification can fold it into a divergence report.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sets = self.occupancy.len();
        if self.tags.len() != sets * SAMPLER_ASSOC
            || self.confidences.len() != sets * SAMPLER_ASSOC
            || self.indices.len() != sets * SAMPLER_ASSOC * self.arity
        {
            return Err(format!(
                "sampler slab sizes inconsistent with {sets} sets x {} features",
                self.arity
            ));
        }
        for (s, &occ) in self.occupancy.iter().enumerate() {
            let occ = usize::from(occ);
            if occ > SAMPLER_ASSOC {
                return Err(format!(
                    "sampler set {s}: occupancy {occ} exceeds associativity {SAMPLER_ASSOC}"
                ));
            }
            let base = s * SAMPLER_ASSOC;
            let tags = &self.tags[base..base + occ];
            for (q, &tag) in tags.iter().enumerate() {
                if tags[..q].contains(&tag) {
                    return Err(format!("sampler set {s}: duplicate partial tag {tag:#x}"));
                }
            }
        }
        Ok(())
    }
}

/// O(1) sampled-set membership filter: one bit per LLC set, built once at
/// predictor construction from the arithmetic sampling definition (every
/// `stride`-th set, as long as its quotient names a real sampler set).
///
/// The per-access membership test on the train path used to be a
/// divide/modulo (or shift/mask for power-of-two strides) plus a range
/// check; the filter turns it into a single indexed bit test for *any*
/// stride, so the overwhelmingly common unsampled access skips
/// tag-partialing, LRU bookkeeping, and weight-update setup on one load.
/// Exact by construction — no false positives or negatives.
#[derive(Debug, Clone)]
pub struct SampledSetFilter {
    bits: Box<[u64]>,
}

impl SampledSetFilter {
    /// Builds the filter for `llc_sets` sets sampled every `stride` sets
    /// into `sampler_sets` sampler sets.
    pub fn new(llc_sets: u32, stride: u32, sampler_sets: u32) -> Self {
        let stride = stride.max(1);
        let mut bits = vec![0u64; (llc_sets as usize).div_ceil(64)].into_boxed_slice();
        for set in (0..llc_sets).step_by(stride as usize) {
            if set / stride < sampler_sets {
                bits[(set / 64) as usize] |= 1u64 << (set % 64);
            }
        }
        SampledSetFilter { bits }
    }

    /// Whether `llc_set` is a sampled set. Sets beyond the built range
    /// are never sampled.
    #[inline]
    pub fn contains(&self, llc_set: u32) -> bool {
        let word = (llc_set / 64) as usize;
        word < self.bits.len() && self.bits[word] & (1u64 << (llc_set % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler(assocs: Vec<u8>, theta: i32) -> Sampler {
        Sampler::new(2, assocs, theta)
    }

    fn run(
        s: &mut Sampler,
        set: u32,
        tag: u16,
        indices: &[u16],
        confidence: i16,
    ) -> (SamplerAccess, Vec<TrainingEvent>) {
        let mut events = Vec::new();
        let outcome = s.access(set, tag, indices, confidence, &mut events);
        (outcome, events)
    }

    #[test]
    fn packed_events_round_trip() {
        let inc = event_increment(13, 0x8001);
        assert_eq!(event_feature(inc), 13);
        assert_eq!(event_index(inc), 0x8001);
        assert!(!event_is_decrement(inc));
        let dec = event_decrement(15, u16::MAX);
        assert_eq!(event_feature(dec), 15);
        assert_eq!(event_index(dec), u16::MAX);
        assert!(event_is_decrement(dec));
    }

    #[test]
    fn miss_then_hit_at_mru() {
        let mut s = sampler(vec![18], 100);
        let (a, _) = run(&mut s, 0, 7, &[3], 0);
        assert!(!a.hit);
        let (b, _) = run(&mut s, 0, 7, &[3], 0);
        assert!(b.hit);
        assert_eq!(b.hit_position, Some(0));
    }

    #[test]
    fn reuse_below_assoc_trains_live_with_stored_index() {
        let mut s = sampler(vec![4], 100);
        run(&mut s, 0, 7, &[42], 0); // placed with index 42
        let (_, events) = run(&mut s, 0, 7, &[99], 0); // reused at p=0
        assert_eq!(
            events,
            vec![event_decrement(0, 42)],
            "training must use the stored index, not the new one"
        );
    }

    #[test]
    fn reuse_beyond_assoc_does_not_train_live() {
        // Feature assoc 1: any hit at position >= 1 would have missed.
        let mut s = sampler(vec![1], 100);
        run(&mut s, 0, 7, &[1], 0);
        // Insert another tag; tag 7 demotes to position 1 == A -> dead event.
        let (_, demote_events) = run(&mut s, 0, 8, &[2], 0);
        assert_eq!(demote_events, vec![event_increment(0, 1)]);
        // Now hit tag 7 at position 1 (>= A=1): no live training.
        let (a, events) = run(&mut s, 0, 7, &[3], 0);
        assert!(a.hit);
        assert_eq!(a.hit_position, Some(1));
        assert!(
            events.iter().all(|&e| !event_is_decrement(e)),
            "no live training beyond feature associativity: {events:?}"
        );
    }

    #[test]
    fn promotion_demotes_intervening_blocks_across_their_assoc() {
        // Two features with different A.
        let mut s = sampler(vec![1, 2], 100);
        run(&mut s, 0, 1, &[10, 20], 0); // tag 1 @ p0
        run(&mut s, 0, 2, &[11, 21], 0); // tag 2 @ p0, tag 1 -> p1 (A0 fires)
                                         // Hit tag 1 (at p1): promoting it demotes tag 2 from p0 to p1,
                                         // crossing feature 0's A=1.
        let (_, events) = run(&mut s, 0, 1, &[12, 22], 0);
        assert!(events.contains(&event_increment(0, 11)));
        // Feature 1 (A=2): tag 1 hit at p1 < 2 -> live training using tag
        // 1's own stored index (20, from its placement).
        assert!(events.contains(&event_decrement(1, 20)));
    }

    #[test]
    fn eviction_is_demotion_to_position_18() {
        let mut s = sampler(vec![18], 100);
        // Fill all 18 ways.
        for t in 0..18u16 {
            run(&mut s, 0, t, &[t], 0);
        }
        assert_eq!(s.set_len(0), 18);
        // One more insertion demotes the LRU block (tag 0) to position 18.
        let (_, events) = run(&mut s, 0, 100, &[0], 0);
        assert!(events.contains(&event_increment(0, 0)));
        assert_eq!(s.set_len(0), 18);
    }

    #[test]
    fn theta_gates_confident_predictions() {
        let mut s = sampler(vec![4], 10);
        // Stored confidence -200: confidently live; reuse shouldn't train.
        run(&mut s, 0, 7, &[5], -200);
        let (_, events) = run(&mut s, 0, 7, &[5], -200);
        assert!(
            events.is_empty(),
            "confidently-correct live prediction retrained"
        );
        // Stored confidence +200 (mispredicted dead): reuse trains.
        run(&mut s, 0, 8, &[6], 200);
        let (_, events) = run(&mut s, 0, 8, &[6], 200);
        assert!(events.contains(&event_decrement(0, 6)));
    }

    #[test]
    fn theta_gates_dead_training_too() {
        let mut s = sampler(vec![1], 10);
        // Confidently dead (+200): demotion to A shouldn't re-train.
        run(&mut s, 0, 7, &[5], 200);
        let (_, events) = run(&mut s, 0, 8, &[6], 200);
        assert!(
            events.is_empty(),
            "confidently-dead block retrained on demotion"
        );
    }

    #[test]
    fn sets_are_independent() {
        let mut s = sampler(vec![2], 100);
        run(&mut s, 0, 7, &[1], 0);
        let (a, _) = run(&mut s, 1, 7, &[1], 0);
        assert!(!a.hit, "tag in set 0 must not hit in set 1");
    }

    #[test]
    fn events_append_without_clearing() {
        // The SoA protocol makes the caller own the buffer lifecycle:
        // access() appends, so consecutive accesses can share one flat
        // buffer.
        let mut s = sampler(vec![1], 100);
        let mut events = Vec::new();
        let _ = s.access(0, 7, &[5], 0, &mut events);
        let _ = s.access(0, 8, &[6], 0, &mut events);
        let _ = s.access(0, 9, &[7], 0, &mut events);
        assert_eq!(
            events,
            vec![event_increment(0, 5), event_increment(0, 6)],
            "demotion events from both misses must accumulate"
        );
    }

    #[test]
    fn partial_tags_fold_high_bits() {
        assert_ne!(partial_tag(0x1_0000_0000), partial_tag(0x2_0000_0000));
        assert_eq!(partial_tag(5), 5);
    }

    #[test]
    fn confidence_clamps_to_nine_bits() {
        assert_eq!(clamp_confidence(1000), 255);
        assert_eq!(clamp_confidence(-1000), -256);
        assert_eq!(clamp_confidence(17), 17);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn access_checks_index_arity() {
        let mut s = sampler(vec![2, 3], 100);
        let mut events = Vec::new();
        let _ = s.access(0, 1, &[0], 0, &mut events);
    }
}
