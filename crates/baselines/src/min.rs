//! Belady's MIN with optimal bypass, computed offline.
//!
//! The paper simulates "Bélády's optimal replacement policy (MIN) adapted
//! to also provide optimal bypass" for single-thread benchmarks (§4.3).
//! MIN needs future knowledge, so reproduction takes two passes over the
//! same deterministic trace:
//!
//! 1. Record the workload's LLC stream with
//!    `mrp_cache::replay::LlcRecording` (its `llc_blocks()` is the block
//!    sequence). The LLC access stream is *independent of the LLC
//!    policy* — L1/L2 filtering and the prefetcher only observe levels
//!    above — so the recorded stream is exactly what any LLC policy sees.
//! 2. Compute each access's next-use index and replay with [`MinPolicy`],
//!    which evicts the block with the farthest next use and bypasses
//!    blocks whose next use is farther than every resident block's.

use std::collections::HashMap;

use mrp_cache::{AccessInfo, CacheConfig, ReplacementPolicy};

/// Sentinel next-use index for "never used again".
const NEVER: u64 = u64::MAX;

/// Computes, for each access in `stream`, the index of the next access to
/// the same block ([`u64::MAX`] if none).
pub fn next_use_indices(stream: &[u64]) -> Vec<u64> {
    let mut next = vec![NEVER; stream.len()];
    let mut last_seen: HashMap<u64, usize> = HashMap::new();
    for (i, &block) in stream.iter().enumerate().rev() {
        if let Some(&j) = last_seen.get(&block) {
            next[i] = j as u64;
        }
        last_seen.insert(block, i);
    }
    next
}

/// Belady MIN with optimal bypass, driven by a precomputed next-use array.
///
/// The policy counts accesses as the cache presents them; access `i` must
/// be the `i`-th access of the recorded stream (guaranteed by determinism
/// of the trace and upper levels).
#[derive(Debug)]
pub struct MinPolicy {
    next_use: Vec<u64>,
    cursor: usize,
    /// Shadow of set contents: block -> its next-use index.
    block_next_use: HashMap<u64, u64>,
    /// Shadow of (set, way) -> block for victim bookkeeping.
    contents: Vec<Option<u64>>,
    assoc: u32,
    bypass: bool,
}

impl MinPolicy {
    /// Creates the policy from the recorded stream.
    pub fn new(llc: &CacheConfig, stream: &[u64]) -> Self {
        MinPolicy {
            next_use: next_use_indices(stream),
            cursor: 0,
            block_next_use: HashMap::new(),
            contents: vec![None; llc.sets() as usize * llc.associativity() as usize],
            assoc: llc.associativity(),
            bypass: true,
        }
    }

    /// Disables the optimal-bypass extension (pure MIN replacement).
    pub fn set_bypass(&mut self, enabled: bool) {
        self.bypass = enabled;
    }

    /// Next-use index of the block being accessed right now.
    fn current_next_use(&self) -> u64 {
        self.next_use.get(self.cursor).copied().unwrap_or(NEVER)
    }

    #[inline]
    fn slot(&self, set: u32, way: u32) -> usize {
        set as usize * self.assoc as usize + way as usize
    }
}

impl ReplacementPolicy for MinPolicy {
    fn name(&self) -> &str {
        "min"
    }

    fn on_hit(&mut self, info: &AccessInfo, _way: u32) {
        let next = self.current_next_use();
        self.block_next_use.insert(info.block, next);
        self.cursor += 1;
    }

    fn should_bypass(&mut self, info: &AccessInfo) -> bool {
        if !self.bypass {
            return false;
        }
        let my_next = self.current_next_use();
        if my_next == NEVER {
            self.cursor += 1;
            return true;
        }
        // Bypass only if the set is full and every resident block is
        // needed sooner than this one.
        let base = self.slot(info.set, 0);
        let mut full = true;
        let mut all_sooner = true;
        for way in 0..self.assoc {
            match self.contents[base + way as usize] {
                Some(block) => {
                    let theirs = self.block_next_use.get(&block).copied().unwrap_or(NEVER);
                    if theirs >= my_next {
                        all_sooner = false;
                    }
                }
                None => {
                    full = false;
                }
            }
        }
        if full && all_sooner {
            self.cursor += 1;
            return true;
        }
        false
    }

    fn choose_victim(&mut self, info: &AccessInfo, occupants: &[u64]) -> u32 {
        let _ = info;
        // Evict the block whose next use is farthest in the future.
        occupants
            .iter()
            .enumerate()
            .max_by_key(|(_, &block)| self.block_next_use.get(&block).copied().unwrap_or(NEVER))
            .map(|(w, _)| w as u32)
            .expect("occupants nonempty")
    }

    fn on_evict(&mut self, set: u32, way: u32, block: u64) {
        self.block_next_use.remove(&block);
        let slot = self.slot(set, way);
        self.contents[slot] = None;
    }

    fn on_fill(&mut self, info: &AccessInfo, way: u32) {
        let next = self.current_next_use();
        self.cursor += 1;
        self.block_next_use.insert(info.block, next);
        let slot = self.slot(info.set, way);
        self.contents[slot] = Some(info.block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_cache::policies::Lru;
    use mrp_cache::Cache;
    use mrp_trace::MemoryAccess;

    fn tiny() -> CacheConfig {
        CacheConfig::new(64 * 2, 2) // 1 set x 2 ways
    }

    fn load(block: u64) -> MemoryAccess {
        MemoryAccess::load(0x400000, block * 64)
    }

    fn run_min(stream: &[u64], bypass: bool) -> (u64, u64, u64) {
        let c = tiny();
        let mut p = MinPolicy::new(&c, stream);
        p.set_bypass(bypass);
        let mut cache = Cache::new(c, Box::new(p));
        for &b in stream {
            let _ = cache.access(&load(b), false);
        }
        let s = cache.stats();
        (s.demand_hits, s.demand_misses, s.bypasses)
    }

    #[test]
    fn next_use_indices_are_correct() {
        let stream = vec![1, 2, 1, 3, 2];
        let next = next_use_indices(&stream);
        assert_eq!(next, vec![2, 4, NEVER, NEVER, NEVER]);
    }

    #[test]
    fn min_beats_lru_on_cyclic_pattern() {
        // Classic: 3-block cycle in a 2-way set. LRU gets 0 hits; MIN
        // keeps one block resident and hits it every cycle.
        let stream: Vec<u64> = (0..60).map(|i| i % 3).collect();
        let (hits_min, _, _) = run_min(&stream, false);

        let c = tiny();
        let mut lru_cache = Cache::new(c, Box::new(Lru::new(c.sets(), c.associativity())));
        for &b in &stream {
            let _ = lru_cache.access(&load(b), false);
        }
        let hits_lru = lru_cache.stats().demand_hits;
        assert_eq!(hits_lru, 0, "LRU thrashes the 3-cycle");
        assert!(hits_min > 15, "MIN hits: {hits_min}");
    }

    #[test]
    fn bypass_skips_never_reused_blocks() {
        // Blocks 100.. appear once each: MIN-with-bypass never caches them.
        let mut stream: Vec<u64> = Vec::new();
        for i in 0..50u64 {
            stream.push(0);
            stream.push(100 + i);
        }
        let (hits, _, bypasses) = run_min(&stream, true);
        assert!(bypasses >= 49, "bypasses: {bypasses}");
        assert_eq!(hits, 49, "block 0 should always hit after its fill");
    }

    #[test]
    fn min_is_at_least_as_good_as_lru_on_random_streams() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for trial in 0..10 {
            let stream: Vec<u64> = (0..500).map(|_| rng.gen_range(0..8)).collect();
            let (hits_min, _, _) = run_min(&stream, true);
            let c = tiny();
            let mut lru_cache = Cache::new(c, Box::new(Lru::new(c.sets(), c.associativity())));
            for &b in &stream {
                let _ = lru_cache.access(&load(b), false);
            }
            assert!(
                hits_min >= lru_cache.stats().demand_hits,
                "trial {trial}: MIN ({hits_min}) worse than LRU ({})",
                lru_cache.stats().demand_hits
            );
        }
    }

    #[test]
    fn min_without_bypass_never_bypasses() {
        let stream: Vec<u64> = (0..100).collect();
        let (_, _, bypasses) = run_min(&stream, false);
        assert_eq!(bypasses, 0);
    }

    /// Runs MIN over `stream` and returns the cache for content probes.
    fn run_min_cache(stream: &[u64], bypass: bool) -> Cache {
        let c = tiny();
        let mut p = MinPolicy::new(&c, stream);
        p.set_bypass(bypass);
        let mut cache = Cache::new(c, Box::new(p));
        for &b in stream {
            let _ = cache.access(&load(b), false);
        }
        cache
    }

    #[test]
    fn four_access_next_use_indices_by_hand() {
        // By inspection: block 1 at index 0 recurs at index 3; blocks 2
        // and 3 never recur.
        assert_eq!(
            next_use_indices(&[1, 2, 3, 1]),
            vec![3, NEVER, NEVER, NEVER]
        );
    }

    #[test]
    fn four_accesses_with_bypass_keep_only_the_reused_block() {
        // [1, 2, 3, 1] in a 1-set x 2-way cache. Optimal with bypass, by
        // inspection: cache 1 (reused at index 3), bypass 2 and 3 (dead
        // on arrival), hit the final 1.
        let cache = run_min_cache(&[1, 2, 3, 1], true);
        let s = cache.stats();
        assert_eq!(s.demand_hits, 1, "the final access to block 1 hits");
        assert_eq!(s.demand_misses, 3, "bypassed accesses still miss");
        assert_eq!(s.bypasses, 2, "blocks 2 and 3 are never reused");
        assert_eq!(s.evictions, 0);
        assert!(cache.probe(1));
        assert!(!cache.probe(2) && !cache.probe(3));
    }

    #[test]
    fn four_accesses_without_bypass_evict_a_dead_block() {
        // Same stream, bypass disabled: 1 and 2 fill the two ways; 3 must
        // evict, and the optimal victim by inspection is 2 (never reused;
        // 1 is still needed at index 3).
        let cache = run_min_cache(&[1, 2, 3, 1], false);
        let s = cache.stats();
        assert_eq!(s.demand_hits, 1);
        assert_eq!(s.demand_misses, 3);
        assert_eq!(s.bypasses, 0);
        assert_eq!(s.evictions, 1);
        assert!(cache.probe(1), "block 1 must survive for its reuse");
        assert!(cache.probe(3));
        assert!(!cache.probe(2), "the never-reused block is the victim");
    }

    #[test]
    fn four_accesses_with_bypass_cache_the_recurring_tail() {
        // [1, 2, 3, 3]: blocks 1 and 2 are dead on arrival (bypassed);
        // 3 recurs immediately, so it is cached and its reuse hits.
        let cache = run_min_cache(&[1, 2, 3, 3], true);
        let s = cache.stats();
        assert_eq!(s.demand_hits, 1);
        assert_eq!(s.bypasses, 2);
        assert_eq!(s.evictions, 0);
        assert!(cache.probe(3));
    }

    #[test]
    fn recorded_stream_drives_an_optimal_second_pass() {
        // The full two-pass workflow: record a real workload's LLC stream
        // once, then replay it under MIN and under LRU on the same
        // geometry. MIN must not lose to LRU on its own stream.
        use mrp_cache::replay::LlcRecording;
        use mrp_cache::HierarchyConfig;

        let suite = mrp_trace::workloads::suite();
        let config = HierarchyConfig::single_thread();
        let rec = LlcRecording::record(suite[4].name(), suite[4].trace(3), &config, 0, 60_000);
        let blocks = rec.llc_blocks();
        assert_eq!(blocks.len(), rec.llc_len());

        let mut min_cache = Cache::new(config.llc, Box::new(MinPolicy::new(&config.llc, &blocks)));
        rec.replay_llc(&mut min_cache);
        let mut lru_cache = Cache::new(
            config.llc,
            Box::new(Lru::new(config.llc.sets(), config.llc.associativity())),
        );
        rec.replay_llc(&mut lru_cache);
        assert!(
            min_cache.stats().demand_misses <= lru_cache.stats().demand_misses,
            "MIN ({}) lost to LRU ({}) on its own stream",
            min_cache.stats().demand_misses,
            lru_cache.stats().demand_misses
        );
    }
}
