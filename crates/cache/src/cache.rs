//! A single set-associative cache with a pluggable policy.

use std::fmt;

use mrp_trace::MemoryAccess;

use crate::config::CacheConfig;
use crate::policy::{AccessInfo, ReplacementPolicy};
use crate::stats::CacheStats;

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The block was resident.
    Hit,
    /// The block missed and was filled, possibly evicting another block.
    Miss {
        /// Block evicted to make room, if the set was full.
        evicted: Option<u64>,
    },
    /// The block missed and the policy chose not to cache it.
    Bypassed,
}

impl AccessResult {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessResult::Hit)
    }

    /// Whether the access missed (filled or bypassed).
    pub fn is_miss(&self) -> bool {
        !self.is_hit()
    }
}

/// One cache level: a tag array plus a replacement policy.
///
/// Tags are stored structure-of-arrays: a packed `u64` tag per slot plus
/// one validity bitmask per set, instead of `Vec<Option<u64>>`. This
/// halves tag-array memory traffic (no discriminant byte + padding per
/// way) and lets the hit scan run branch-light over a dense `u64` slice
/// once a set is full — the steady state for every warmed-up workload.
///
/// The policy type `P` is a parameter the way a `HashMap`'s hasher is.
/// The default, `dyn ReplacementPolicy + Send`, picks the policy at run
/// time (the LLC, whose policy is the experiment's variable); a concrete
/// `P` such as [`crate::policies::Lru`] compiles every hook call inline
/// (the private L1D/L2). Both run this one `access` body.
pub struct Cache<P: ReplacementPolicy + ?Sized = dyn ReplacementPolicy + Send> {
    config: CacheConfig,
    /// `tags[set * assoc + way]` is the resident block's tag; meaningful
    /// only when bit `way` of `valid[set]` is set.
    tags: Vec<u64>,
    /// Per-set validity bitmask (bit `way` = slot holds a block).
    valid: Vec<u64>,
    /// `(1 << assoc) - 1`: the bitmask of a full set.
    full_mask: u64,
    policy: Box<P>,
    /// Per-set way prediction: the way the set last hit or filled. The
    /// hit scan tries it first; most private-level hits land there.
    last_way: Vec<u8>,
    /// Cached [`ReplacementPolicy::uses_victim_occupants`] (the
    /// capability is constant); misses skip the occupant snapshot when
    /// the policy never reads it.
    policy_wants_occupants: bool,
    stats: CacheStats,
    /// Victim-scan scratch, reused across accesses so a full-set miss
    /// does not allocate. Only meaningful within one `access` call.
    occupants: Vec<u64>,
}

impl<P: ReplacementPolicy + ?Sized> fmt::Debug for Cache<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("config", &self.config)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Cache {
    /// Creates the cache with the given geometry and a policy chosen at
    /// run time.
    ///
    /// Defined only for the default policy type, as `HashMap::new` is
    /// only for the default hasher, so `Cache::new(config, Box::new(..))`
    /// infers the boxed form without annotations. Concrete policies use
    /// [`Cache::with_policy`].
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64 (the per-set valid bitmask
    /// width).
    pub fn new(config: CacheConfig, policy: Box<dyn ReplacementPolicy + Send>) -> Self {
        Cache::from_box(config, policy)
    }
}

impl<P: ReplacementPolicy> Cache<P> {
    /// Creates the cache with the given geometry and a statically known
    /// policy, whose hooks then inline into [`Cache::access`].
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 64 (the per-set valid bitmask
    /// width).
    pub fn with_policy(config: CacheConfig, policy: P) -> Self {
        Cache::from_box(config, Box::new(policy))
    }
}

impl<P: ReplacementPolicy + ?Sized> Cache<P> {
    fn from_box(config: CacheConfig, policy: Box<P>) -> Self {
        let assoc = config.associativity();
        assert!(assoc <= 64, "associativity {assoc} exceeds valid bitmask");
        let slots = config.sets() as usize * assoc as usize;
        Cache {
            config,
            tags: vec![0; slots],
            valid: vec![0; config.sets() as usize],
            full_mask: if assoc == 64 {
                u64::MAX
            } else {
                (1u64 << assoc) - 1
            },
            last_way: vec![0; config.sets() as usize],
            policy_wants_occupants: policy.uses_victim_occupants(),
            policy,
            stats: CacheStats::default(),
            occupants: Vec::with_capacity(assoc as usize),
        }
    }

    /// Geometry of this cache.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The policy driving replacement (for experiment-side introspection).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the policy.
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    #[inline]
    fn slot(&self, set: u32, way: u32) -> usize {
        set as usize * self.config.associativity() as usize + way as usize
    }

    /// The validity bitmask of `set` (bit `way` = slot holds a block).
    pub fn valid_mask(&self, set: u32) -> u64 {
        self.valid[set as usize]
    }

    /// The block resident in (`set`, `way`), if any.
    pub fn way_block(&self, set: u32, way: u32) -> Option<u64> {
        (self.valid[set as usize] & (1u64 << way) != 0).then(|| self.tags[self.slot(set, way)])
    }

    /// Software-prefetches the tag state an access to `block` will touch:
    /// the set's validity word and its packed tag row. Batched front-ends
    /// (the replay loops, the hierarchy's L1-miss path) call this a few
    /// events ahead of the serial update loop so the tag-array cache
    /// misses overlap with other work. Purely a memory-system hint — no
    /// architectural effect, and a no-op off x86_64.
    #[inline]
    pub fn prefetch_block(&self, block: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let set = self.config.set_of(block);
            let base = self.slot(set, 0);
            let assoc = self.config.associativity() as usize;
            debug_assert!((set as usize) < self.valid.len());
            debug_assert!(base + assoc <= self.tags.len());
            // SAFETY: `ptr.add` must stay inside its allocation even
            // though only a prefetch reads the pointer. `set_of` masks the
            // block with `sets - 1` (`sets` is a power of two), so
            // `set < sets == valid.len()`. `tags` holds `sets * assoc`
            // slots and neither vector is ever resized, so the row starts
            // at `base = set * assoc` and `base + assoc <= tags.len()`;
            // every `line < assoc` keeps `base + line` in bounds.
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(self.valid.as_ptr().add(set as usize) as *const i8);
                // One prefetch per cache line of the row (8 u64 tags). A
                // plain stride loop: `step_by` divides to size its range
                // on every call.
                let mut line = 0;
                while line < assoc {
                    _mm_prefetch::<_MM_HINT_T0>(self.tags.as_ptr().add(base + line) as *const i8);
                    line += 8;
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = block;
        }
    }

    /// Looks a block up without touching policy or stats state.
    pub fn probe(&self, block: u64) -> bool {
        let set = self.config.set_of(block);
        let base = self.slot(set, 0);
        let mut vmask = self.valid[set as usize];
        while vmask != 0 {
            let way = vmask.trailing_zeros() as usize;
            if self.tags[base + way] == block {
                return true;
            }
            vmask &= vmask - 1;
        }
        false
    }

    /// Simulates one access. `is_prefetch` marks hardware prefetch
    /// requests, which fill with the fake prefetch PC and are not counted
    /// as demand traffic.
    #[inline]
    pub fn access(&mut self, access: &MemoryAccess, is_prefetch: bool) -> AccessResult {
        let info = AccessInfo::from_access(access, &self.config, is_prefetch);
        self.policy.on_access(&info);

        // The hit scan first tries the way the set last hit or filled: at
        // the private levels most hits land there, and such a hit skips
        // the scan and its data-dependent exit. Otherwise the scan splits
        // on set fullness. A full set — the steady state once warmed up —
        // compares every packed tag with no validity checks; the occupant
        // snapshot for the victim scan is the tag slice itself. A
        // partially filled set walks only its valid bits, and the first
        // invalid way is a `trailing_zeros` of the inverted mask.
        // `occupants` aligns way-for-way with the set only in the full
        // miss case, which is the only case that reads it.
        let assoc = self.config.associativity();
        let base = self.slot(info.set, 0);
        let vmask = self.valid[info.set as usize];
        debug_assert_eq!(
            vmask & !self.full_mask,
            0,
            "valid bits beyond associativity in set {}",
            info.set
        );
        let set_tags = &self.tags[base..base + assoc as usize];
        let predicted = u32::from(self.last_way[info.set as usize]);
        let mut hit_way = None;
        let mut invalid_way = None;
        self.occupants.clear();
        if vmask >> predicted & 1 != 0 && set_tags[predicted as usize] == info.block {
            hit_way = Some(predicted);
        } else if vmask == self.full_mask {
            for (way, &tag) in set_tags.iter().enumerate() {
                if tag == info.block {
                    hit_way = Some(way as u32);
                    break;
                }
            }
            if hit_way.is_none() && self.policy_wants_occupants {
                self.occupants.extend_from_slice(set_tags);
            }
        } else {
            invalid_way = Some((!vmask).trailing_zeros());
            let mut scan = vmask;
            while scan != 0 {
                let way = scan.trailing_zeros();
                if set_tags[way as usize] == info.block {
                    hit_way = Some(way);
                    break;
                }
                scan &= scan - 1;
            }
        }

        if let Some(way) = hit_way {
            self.last_way[info.set as usize] = way as u8;
            if is_prefetch {
                self.stats.prefetch_hits += 1;
            } else {
                self.stats.demand_hits += 1;
            }
            self.policy.on_hit(&info, way);
            return AccessResult::Hit;
        }

        if is_prefetch {
            self.stats.prefetch_fills += 1;
        } else {
            self.stats.demand_misses += 1;
        }

        if self.policy.should_bypass(&info) {
            self.stats.bypasses += 1;
            return AccessResult::Bypassed;
        }

        // Prefer an invalid way; otherwise ask the policy for a victim.
        let mut evicted = None;
        let way = match invalid_way {
            Some(w) => w,
            None => {
                let victim = self.policy.choose_victim(&info, &self.occupants);
                assert!(victim < assoc, "policy chose way {victim} of {assoc}");
                let block = self.tags[base + victim as usize];
                self.policy.on_evict(info.set, victim, block);
                self.stats.evictions += 1;
                evicted = Some(block);
                victim
            }
        };
        debug_assert!(way < assoc, "fill way {way} of {assoc}");
        let slot = self.slot(info.set, way);
        self.tags[slot] = info.block;
        self.valid[info.set as usize] |= 1u64 << way;
        self.last_way[info.set as usize] = way as u8;
        self.policy.on_fill(&info, way);
        debug_assert!(self.probe(info.block), "filled block not resident");
        AccessResult::Miss { evicted }
    }

    /// Number of resident blocks (for tests and invariant checks).
    pub fn resident_blocks(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;

    fn small_cache() -> Cache {
        let config = CacheConfig::new(64 * 8, 4); // 2 sets x 4 ways
        Cache::new(
            config,
            Box::new(Lru::new(config.sets(), config.associativity())),
        )
    }

    fn load(block: u64) -> MemoryAccess {
        MemoryAccess::load(0x400000, block * 64)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache();
        assert!(c.access(&load(10), false).is_miss());
        assert!(c.access(&load(10), false).is_hit());
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn fills_use_invalid_ways_first() {
        let mut c = small_cache();
        // Four blocks in the same set: all fit without eviction.
        for i in 0..4u64 {
            let r = c.access(&load(i * 2), false);
            assert_eq!(r, AccessResult::Miss { evicted: None });
        }
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.resident_blocks(), 4);
    }

    #[test]
    fn full_set_evicts_lru() {
        let mut c = small_cache();
        for i in 0..4u64 {
            c.access(&load(i * 2), false);
        }
        // Fifth block in the same set evicts block 0 (the LRU).
        let r = c.access(&load(8 * 2), false);
        assert_eq!(r, AccessResult::Miss { evicted: Some(0) });
        assert!(!c.probe(0));
        assert!(c.probe(16));
    }

    #[test]
    fn hit_refreshes_recency() {
        let mut c = small_cache();
        for i in 0..4u64 {
            c.access(&load(i * 2), false);
        }
        c.access(&load(0), false); // touch block 0: now MRU
        let r = c.access(&load(8 * 2), false);
        assert_eq!(r, AccessResult::Miss { evicted: Some(2) });
        assert!(c.probe(0));
    }

    #[test]
    fn prefetches_do_not_count_as_demand() {
        let mut c = small_cache();
        c.access(&load(4), true);
        assert_eq!(c.stats().demand_misses, 0);
        assert_eq!(c.stats().prefetch_fills, 1);
        // Demand access to a prefetched block hits.
        assert!(c.access(&load(4), false).is_hit());
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = small_cache();
        c.access(&load(6), false);
        let before = *c.stats();
        assert!(c.probe(6));
        assert!(!c.probe(7));
        assert_eq!(*c.stats(), before);
    }

    /// Drives `prefetch_block` and `access` at the last set, whose tag row
    /// ends exactly at the end of `tags`, so the debug asserts bounding
    /// the prefetch pointers run at the edge.
    #[test]
    fn last_set_prefetch_stays_in_bounds() {
        for assoc in [1u32, 8, 16, 64] {
            let config = CacheConfig::new(64 * 4 * u64::from(assoc), assoc); // 4 sets
            let mut c = Cache::with_policy(config, Lru::new(config.sets(), assoc));
            let last = u64::from(config.sets() - 1);
            for i in 0..=u64::from(assoc) {
                let block = last + i * u64::from(config.sets());
                c.prefetch_block(block);
                assert!(c.access(&load(block), false).is_miss());
            }
            assert_eq!(c.valid_mask(config.sets() - 1).count_ones(), assoc);
            assert_eq!(c.stats().evictions, 1);
        }
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = small_cache();
        for i in 0..100u64 {
            c.access(&load(i), false);
            assert!(c.resident_blocks() <= 8);
        }
        assert_eq!(c.resident_blocks(), 8);
    }
}
