//! Property tests for the train stage: the sampler-set membership
//! bitset that gates it, and the per-access event bound the one
//! weight-update fold relies on.

use mrp_core::feature_sets;
use mrp_core::sampler::{event_feature, SampledSetFilter, Sampler, CONFIDENCE_MAX, CONFIDENCE_MIN};
use proptest::prelude::*;

/// The arithmetic definition of sampled-set membership the filter must
/// reproduce: sets at multiples of the stride, first `sampler_sets` of
/// them (see `MultiperspectivePredictor::sampler_set`).
fn is_sampled_reference(set: u32, stride: u32, sampler_sets: u32) -> bool {
    let stride = stride.max(1);
    set.is_multiple_of(stride) && set / stride < sampler_sets
}

proptest! {
    /// The O(1) bitset gate must never skip the train stage for a set
    /// the sampler owns (a false negative silently stops training), nor
    /// admit one it doesn't (a false positive corrupts the sampler
    /// indexing): exact equivalence with the arithmetic definition.
    #[test]
    fn sampled_set_filter_is_exact(
        sets_log2 in 1u32..=14,
        sampler_sets in 0u32..=512,
        stride_jitter in 0u32..=3,
    ) {
        let llc_sets = 1u32 << sets_log2;
        // The shipped configurations derive the stride from the set
        // count; also sweep deliberately mismatched strides.
        let stride = ((llc_sets / sampler_sets.max(1)).max(1)).saturating_add(stride_jitter);
        let filter = SampledSetFilter::new(llc_sets, stride, sampler_sets);
        for set in 0..llc_sets {
            prop_assert_eq!(
                filter.contains(set),
                is_sampled_reference(set, stride, sampler_sets),
                "set {} (stride {}, sampler_sets {})",
                set,
                stride,
                sampler_sets
            );
        }
        // Out-of-range probes must be negative, not out-of-bounds.
        prop_assert!(!filter.contains(llc_sets));
        prop_assert!(!filter.contains(u32::MAX));
    }

    /// One sampler access trains each feature at most once — on a reuse
    /// inside its associativity or a demotion to exactly it (§3.3) — so
    /// the event buffer it hands the weight-update fold never holds two
    /// events for one feature's table. Checked on every published
    /// feature set under mixed hit/miss streams and every threshold
    /// regime.
    #[test]
    fn sampler_access_emits_at_most_one_event_per_feature(
        set_pick in 0usize..6,
        // Stored confidences lie in -256..=255, so theta >= 256 lets
        // every candidate event through the threshold gate.
        theta in -300i32..600,
        stream in proptest::collection::vec(
            (0u32..4, 0u16..24, any::<u16>(), CONFIDENCE_MIN..=CONFIDENCE_MAX),
            1..400,
        ),
    ) {
        let sets = [
            feature_sets::table_1a(),
            feature_sets::table_1b(),
            feature_sets::table_2(),
            feature_sets::suite_tuned_a(),
            feature_sets::suite_tuned_b(),
            feature_sets::perceptron_like(),
        ];
        let features = &sets[set_pick];
        let arity = features.len();
        let mut sampler = Sampler::new(4, features.iter().map(|f| f.assoc).collect(), theta);
        let mut events = Vec::new();
        for (i, &(set, tag, seed, confidence)) in stream.iter().enumerate() {
            // A small tag pool per set mixes sampler hits at every
            // position with misses that push blocks off the end.
            let indices: Vec<u16> = (0..arity as u16)
                .map(|f| seed.wrapping_mul(31).wrapping_add(f))
                .collect();
            events.clear();
            sampler.access(set, tag, &indices, confidence as i16, &mut events);
            prop_assert!(
                events.len() <= arity,
                "access {}: {} events > arity {}", i, events.len(), arity
            );
            let mut seen = vec![false; arity];
            for &e in &events {
                let f = usize::from(event_feature(e));
                prop_assert!(!seen[f], "access {}: feature {} trained twice", i, f);
                seen[f] = true;
            }
        }
    }
}
