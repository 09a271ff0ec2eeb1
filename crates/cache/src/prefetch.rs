//! Stream prefetcher.
//!
//! Models the paper's prefetcher (§4.1): "It starts a stream on a L1 cache
//! miss and waits for at most two misses to decide on the direction of the
//! stream. After that it starts to generate and send prefetch requests. It
//! can track 16 separate streams. The replacement policy for the streams is
//! LRU."

/// Maximum simultaneously tracked streams.
pub const MAX_STREAMS: usize = 16;

/// How far (in blocks) a miss may land from a stream's head and still be
/// matched to it.
const MATCH_WINDOW: i64 = 16;

/// Prefetch degree: blocks issued per confirmed-stream advance, and so the
/// capacity of [`PrefetchRequests`].
pub const DEGREE: usize = 4;

/// Prefetch distance: how far ahead of the stream head requests run.
/// Must outrun the in-flight fill delay modeled by the hierarchy.
const DISTANCE: i64 = 16;

#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    /// Most recent miss block in this stream.
    head: i64,
    /// +1 / -1 once confirmed; 0 while training.
    direction: i64,
    /// Misses observed while training (direction decided at 2).
    training_misses: u32,
    /// Furthest block already requested, so requests are not re-issued.
    issued_until: i64,
    /// LRU stamp.
    last_used: u64,
}

/// The at most [`DEGREE`] prefetch block addresses one L1 miss issues,
/// held inline so the miss path does not allocate. Derefs to the issued
/// blocks in issue order.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefetchRequests {
    blocks: [u64; DEGREE],
    len: usize,
}

impl PrefetchRequests {
    fn push(&mut self, block: u64) {
        self.blocks[self.len] = block;
        self.len += 1;
    }
}

impl std::ops::Deref for PrefetchRequests {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.blocks[..self.len]
    }
}

/// A 16-entry stream prefetcher trained on L1 miss blocks.
#[derive(Debug, Default)]
pub struct StreamPrefetcher {
    streams: Vec<StreamEntry>,
    clock: u64,
}

impl StreamPrefetcher {
    /// Creates an empty prefetcher.
    pub fn new() -> Self {
        StreamPrefetcher::default()
    }

    /// Observes an L1 miss to `block`; returns the prefetch block
    /// addresses to issue (possibly none).
    pub fn on_l1_miss(&mut self, block: u64) -> PrefetchRequests {
        let mut requests = PrefetchRequests::default();
        self.clock += 1;
        let block = block as i64;

        // Match against an existing stream.
        let mut best: Option<usize> = None;
        for (i, s) in self.streams.iter().enumerate() {
            let delta = block - s.head;
            if delta != 0 && delta.abs() <= MATCH_WINDOW {
                // Prefer the stream whose direction agrees.
                let agrees = s.direction == 0 || delta.signum() == s.direction;
                if agrees {
                    best = Some(i);
                    break;
                }
            }
        }

        if let Some(i) = best {
            let s = &mut self.streams[i];
            s.last_used = self.clock;
            let delta = block - s.head;
            if s.direction == 0 {
                s.training_misses += 1;
                if s.training_misses >= 2 {
                    s.direction = delta.signum();
                    s.issued_until = block;
                }
                s.head = block;
                return requests;
            }
            s.head = block;
            // Confirmed stream: run requests up to DISTANCE ahead,
            // starting strictly beyond both the current miss and anything
            // already issued.
            let target = block + s.direction * DISTANCE;
            let mut next = if s.direction > 0 {
                (s.issued_until + 1).max(block + 1)
            } else {
                (s.issued_until - 1).min(block - 1)
            };
            while requests.len() < DEGREE
                && (s.direction > 0 && next <= target || s.direction < 0 && next >= target)
            {
                if next >= 0 {
                    requests.push(next as u64);
                }
                s.issued_until = if s.direction > 0 {
                    s.issued_until.max(next)
                } else {
                    s.issued_until.min(next)
                };
                next += s.direction;
            }
            return requests;
        }

        // Allocate a new stream (LRU replacement among the 16).
        let entry = StreamEntry {
            head: block,
            direction: 0,
            training_misses: 1,
            issued_until: block,
            last_used: self.clock,
        };
        if self.streams.len() < MAX_STREAMS {
            self.streams.push(entry);
        } else {
            let lru = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i)
                .expect("streams nonempty");
            self.streams[lru] = entry;
        }
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_two_misses_to_confirm_direction() {
        let mut p = StreamPrefetcher::new();
        assert!(p.on_l1_miss(100).is_empty()); // allocate
        assert!(p.on_l1_miss(101).is_empty()); // second miss: direction set
        let reqs = p.on_l1_miss(102); // confirmed: prefetching starts
        assert!(!reqs.is_empty(), "confirmed stream should prefetch");
        assert!(reqs.iter().all(|&b| b > 102));
        let more = p.on_l1_miss(103);
        assert!(more.iter().all(|&b| b > 103));
    }

    #[test]
    fn descending_streams_prefetch_downward() {
        let mut p = StreamPrefetcher::new();
        p.on_l1_miss(1000);
        p.on_l1_miss(999);
        p.on_l1_miss(998);
        let reqs = p.on_l1_miss(997);
        assert!(!reqs.is_empty());
        assert!(reqs.iter().all(|&b| b < 997));
    }

    #[test]
    fn random_misses_never_prefetch() {
        let mut p = StreamPrefetcher::new();
        let mut total = 0;
        for i in 0..100u64 {
            // Jumps of 1000 blocks never match the window.
            total += p.on_l1_miss(i * 1000).len();
        }
        assert_eq!(total, 0);
    }

    #[test]
    fn requests_are_not_reissued() {
        let mut p = StreamPrefetcher::new();
        for b in 0..20u64 {
            p.on_l1_miss(b);
        }
        let mut seen = std::collections::HashSet::new();
        let mut p2 = StreamPrefetcher::new();
        for b in 0..40u64 {
            for &r in p2.on_l1_miss(b).iter() {
                assert!(seen.insert(r), "block {r} prefetched twice");
            }
        }
    }

    #[test]
    fn tracks_at_most_16_streams() {
        let mut p = StreamPrefetcher::new();
        for i in 0..40u64 {
            p.on_l1_miss(i * 10_000);
        }
        assert!(p.streams.len() <= MAX_STREAMS);
    }

    #[test]
    fn full_table_replaces_the_lru_slot_in_place() {
        // Sixteen streams a MATCH_WINDOW apart never match each other.
        let head = |i: u64| 1_000_000 + i * 1_000;
        let mut p = StreamPrefetcher::new();
        for i in 0..MAX_STREAMS as u64 {
            p.on_l1_miss(head(i));
        }
        // A near miss refreshes every stream but 7, leaving 7 the LRU.
        for i in (0..MAX_STREAMS as u64).filter(|&i| i != 7) {
            p.on_l1_miss(head(i) + 1);
        }
        let before: Vec<i64> = p.streams.iter().map(|s| s.head).collect();
        p.on_l1_miss(50_000_000);
        assert_eq!(p.streams.len(), MAX_STREAMS);
        for (i, s) in p.streams.iter().enumerate() {
            let expected = if i == 7 { 50_000_000 } else { before[i] };
            assert_eq!(s.head, expected, "slot {i}");
        }
    }

    #[test]
    fn issued_counter_matches_requests() {
        use crate::{Hierarchy, HierarchyConfig};
        use mrp_trace::MemoryAccess;
        // Prefetches fill L2 and the LLC, never L1, so every access of a
        // fresh block misses L1 and the hierarchy's prefetcher sees the
        // same miss stream as `p`.
        let config = HierarchyConfig::single_thread();
        let llc = crate::policies::Lru::new(config.llc.sets(), config.llc.associativity());
        let mut h = Hierarchy::new(config, Box::new(llc));
        let mut p = StreamPrefetcher::new();
        let mut total = 0u64;
        for b in 0..50u64 {
            h.access(&MemoryAccess::load(0x400000, b * 64));
            total += p.on_l1_miss(b).len() as u64;
        }
        let stats = h.stats();
        assert_eq!(stats.l1d.demand_misses, 50);
        assert_eq!(stats.prefetches_issued, total);
        assert!(total > 0);
    }

    #[test]
    fn no_call_returns_more_than_degree() {
        // Ascending, descending and interleaved streams, plus jumps that
        // allocate and evict streams.
        let mut p = StreamPrefetcher::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut full = 0;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let block = match x % 4 {
                0 => 1_000_000 + i,
                1 => 5_000_000 - i,
                2 => 9_000_000 + 3 * i,
                _ => x >> 20,
            };
            let reqs = p.on_l1_miss(block);
            assert!(reqs.len() <= DEGREE, "{} requests", reqs.len());
            full += usize::from(reqs.len() == DEGREE);
        }
        assert!(full > 0, "the degree was never reached");
    }
}
