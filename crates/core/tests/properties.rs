//! Property tests for the train stage's fast-path gate: the sampler-set
//! membership bitset.

use mrp_core::sampler::SampledSetFilter;
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
}
