//! Deterministic trace fuzzer.
//!
//! Every fuzz artifact — cache geometry, access stream, feature set — is a
//! pure function of a single `u64` seed plus a job index, derived through
//! a self-contained splitmix64 generator (no dependency on any external
//! RNG crate, so streams reproduce bit-for-bit across environments). A
//! failure therefore reproduces from `(seed, job)` alone, and the greedy
//! [`shrink`] loop minimizes a failing stream before it is printed.

use mrp_cache::CacheConfig;
use mrp_core::feature::{Feature, FeatureKind};
use mrp_trace::{AccessKind, MemoryAccess};

use crate::lockstep::StreamItem;

/// Self-contained splitmix64: the standard finalizer over an incrementing
/// state. Deliberately not shared with any crate so fuzz streams are
/// independent of RNG implementations elsewhere in the workspace.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Per-job stream parameters, derived deterministically from the seed.
#[derive(Debug, Clone, Copy)]
pub struct StreamProfile {
    /// Cache geometry the stream targets.
    pub geometry: CacheConfig,
    /// Whether the stream interleaves prefetch requests. Prefetch jobs
    /// skip the MIN bound (MinPolicy models demand traffic only).
    pub prefetches: bool,
}

/// Candidate set counts: tiny sets maximize eviction pressure, larger
/// ones exercise the sampler stride and partially-filled-set scan paths.
/// Associativity stays at 16 because several policies (MDPP, Hawkeye,
/// MPPPB placement) are tuned for 16-way geometry.
const SET_CHOICES: [u32; 3] = [2, 16, 64];

/// Derives the stream profile for one `(seed, job)` pair.
pub fn job_profile(seed: u64, job: usize) -> StreamProfile {
    let mut rng = SplitMix::new(seed ^ (job as u64).wrapping_mul(0xa076_1d64_78bd_642f));
    let sets = SET_CHOICES[rng.below(SET_CHOICES.len() as u64) as usize];
    StreamProfile {
        geometry: CacheConfig::new(u64::from(sets) * 16 * 64, 16),
        prefetches: job % 4 == 3,
    }
}

/// Generates the access stream for one `(seed, job)` pair.
///
/// The stream alternates between locality modes (sequential scan, tight
/// loop, hot-set, uniform random) every few dozen accesses, so one stream
/// exercises streaming, thrashing, and reuse-friendly phases against the
/// same policy instance.
pub fn gen_stream(seed: u64, job: usize, len: usize) -> Vec<StreamItem> {
    let profile = job_profile(seed, job);
    let mut rng = SplitMix::new(seed ^ (job as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    let footprint = [8u64, 64, 512, 4096][rng.below(4) as usize];
    let pcs: Vec<u64> = (0..16).map(|i| 0x40_0000 + i * 0x40).collect();
    let mut stream = Vec::with_capacity(len);
    let mut mode = rng.below(4);
    let mut mode_left = 16 + rng.below(112);
    let mut cursor = 0u64;
    let hot: Vec<u64> = (0..8).map(|_| rng.below(footprint)).collect();
    while stream.len() < len {
        if mode_left == 0 {
            mode = rng.below(4);
            mode_left = 16 + rng.below(112);
        }
        mode_left -= 1;
        let block = match mode {
            0 => {
                cursor = (cursor + 1) % footprint;
                cursor
            }
            1 => {
                cursor = (cursor + 1) % 24.min(footprint);
                cursor
            }
            2 => hot[rng.below(8) as usize],
            _ => rng.below(footprint),
        };
        // Sub-block offset derived from the block so shrinking never
        // changes surviving accesses.
        let offset = (block.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 59) & 0x38;
        let kind = if rng.below(4) == 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let is_prefetch = profile.prefetches && rng.below(8) == 0;
        let access = MemoryAccess {
            pc: pcs[rng.below(16) as usize],
            address: block * 64 + offset,
            core: 0,
            kind,
            non_memory_before: (rng.below(8)) as u8,
            dependent: false,
        };
        stream.push((access, is_prefetch));
    }
    stream
}

/// Generates a random valid feature specification for one `(seed, job)`
/// pair: 1–12 features whose parameters respect [`Feature::new`]'s
/// validity rules.
pub fn gen_features(seed: u64, job: usize) -> Vec<Feature> {
    let mut rng = feature_rng(seed, job);
    let count = 1 + rng.below(12) as usize;
    draw_features(&mut rng, count)
}

/// [`gen_features`] with the feature count fixed by the caller, for
/// passes that need plans filling a whole 16-lane row or spilling into a
/// second one.
pub fn gen_features_with_count(seed: u64, job: usize, count: usize) -> Vec<Feature> {
    draw_features(&mut feature_rng(seed, job), count)
}

fn feature_rng(seed: u64, job: usize) -> SplitMix {
    SplitMix::new(seed ^ (job as u64).wrapping_mul(0x9fb2_1c65_1e98_df25))
}

fn draw_features(rng: &mut SplitMix, count: usize) -> Vec<Feature> {
    (0..count)
        .map(|_| {
            let assoc = 1 + rng.below(18) as u8;
            let xor_pc = rng.below(2) == 1;
            let kind = match rng.below(7) {
                0 => {
                    let begin = rng.below(32) as u8;
                    FeatureKind::Pc {
                        begin,
                        end: begin + rng.below(24) as u8,
                        which: rng.below(18) as u8,
                    }
                }
                1 => {
                    let begin = rng.below(32) as u8;
                    FeatureKind::Address {
                        begin,
                        end: begin + rng.below(24) as u8,
                    }
                }
                2 => FeatureKind::Bias,
                3 => FeatureKind::Burst,
                4 => FeatureKind::Insert,
                5 => FeatureKind::LastMiss,
                _ => {
                    let begin = rng.below(6) as u8;
                    FeatureKind::Offset {
                        begin,
                        end: begin + rng.below(6 - u64::from(begin)) as u8,
                    }
                }
            };
            Feature::new(assoc, kind, xor_pc)
        })
        .collect()
}

/// Hard cap on `still_fails` evaluations during shrinking, so a slow
/// reproduction can never stall the verifier.
pub const SHRINK_BUDGET: usize = 4096;

/// Greedy delta-debugging shrink: repeatedly tries to delete chunks of
/// the failing input, keeping any candidate that still fails, halving the
/// chunk size until single-element removal stops making progress.
///
/// `still_fails` must return `true` when the candidate still reproduces
/// the failure. The input itself is assumed to fail.
pub fn shrink<T: Clone>(items: &[T], still_fails: &mut dyn FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current: Vec<T> = items.to_vec();
    let mut budget = SHRINK_BUDGET;
    let mut chunk = (current.len() / 2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < current.len() {
            if budget == 0 {
                return current;
            }
            let end = (i + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - i));
            candidate.extend_from_slice(&current[..i]);
            candidate.extend_from_slice(&current[end..]);
            budget -= 1;
            if !candidate.is_empty() && still_fails(&candidate) {
                current = candidate;
                removed_any = true;
                // Re-test the same position: the next chunk slid into it.
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            if !removed_any {
                return current;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_in_seed_and_job() {
        let a = gen_stream(42, 3, 500);
        let b = gen_stream(42, 3, 500);
        let c = gen_stream(43, 3, 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn profiles_cover_all_geometries() {
        let sets: Vec<u32> = (0..32).map(|j| job_profile(7, j).geometry.sets()).collect();
        for choice in SET_CHOICES {
            assert!(sets.contains(&choice), "no job drew {choice} sets");
        }
        assert!((0..32).any(|j| job_profile(7, j).prefetches));
    }

    #[test]
    fn generated_features_are_valid_and_varied() {
        for job in 0..16 {
            let features = gen_features(11, job);
            assert!(!features.is_empty() && features.len() <= 12);
            for f in &features {
                assert!((1..=18).contains(&f.assoc));
                let _ = f.table_size(); // would panic on invalid spec
            }
        }
    }

    #[test]
    fn prefetch_flags_only_on_prefetch_jobs() {
        for job in 0..8 {
            let stream = gen_stream(5, job, 2000);
            let has_prefetch = stream.iter().any(|(_, p)| *p);
            assert_eq!(has_prefetch, job_profile(5, job).prefetches, "job {job}");
        }
    }

    #[test]
    fn shrink_finds_a_minimal_failing_pair() {
        // Failure: the input contains both 7 and 13.
        let items: Vec<u32> = (0..100).collect();
        let mut checks = 0;
        let shrunk = shrink(&items, &mut |candidate| {
            checks += 1;
            candidate.contains(&7) && candidate.contains(&13)
        });
        assert_eq!(shrunk, vec![7, 13]);
        assert!(checks <= SHRINK_BUDGET);
    }

    #[test]
    fn shrink_keeps_single_culprit() {
        let items: Vec<u32> = (0..64).collect();
        let shrunk = shrink(&items, &mut |c| c.contains(&63));
        assert_eq!(shrunk, vec![63]);
    }
}
