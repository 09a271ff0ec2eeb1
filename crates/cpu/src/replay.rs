//! Full timing replay of a recorded LLC stream.
//!
//! [`replay_single`] reproduces `SingleCoreSim::run` bit for bit from an
//! [`LlcRecording`] instead of re-simulating the trace generator, L1, L2
//! and prefetcher: only the LLC (the one component that depends on the
//! policy under test) and the core timing model run live. The recorded
//! servicing level dictates each demand access's latency except for
//! LLC-bound accesses, whose hit/miss — and hence latency — is decided
//! by the replayed LLC itself.
//!
//! Correctness hinges on reproducing the full simulation's operation
//! order on both live components:
//!
//! * **LLC**: events are logged in emission order — a demand access at
//!   its `on_core_access` position, then the prefetch fills that drained
//!   during that access — but the *demand LLC access* of an LLC-bound
//!   event happens after those drains. Replay therefore holds the
//!   LLC-bound demand as `pending` and flushes it at the next demand
//!   event (or window edge), exactly where full simulation would issue
//!   it relative to every other LLC operation.
//! * **Core model**: accesses retire in access order; holding at most
//!   one pending retire (flushed before the next access's retire)
//!   preserves it. Retiring an L1/L2-serviced access immediately —
//!   before later prefetch drains touch the LLC — is exact because the
//!   core model and the LLC share no state.
//!
//! The measure-window statistics combine the recorded L1/L2 snapshot
//! diffs with the replayed LLC's own counter diff at the warmup
//! boundary, rebuilding the same `HierarchyStats` full simulation
//! reports.

use mrp_cache::replay::LlcRecording;
use mrp_cache::{Cache, CacheStats, HierarchyStats, LevelLatencies};
use mrp_trace::ServiceLevel;

use crate::core_model::{CoreModel, CoreModelConfig};
use crate::single::SingleCoreResult;

/// Replays `recording` into `cache` (the LLC under test) with the
/// paper's default core parameters, returning the same
/// [`SingleCoreResult`] full simulation would produce.
pub fn replay_single(
    recording: &LlcRecording,
    cache: &mut Cache,
    latencies: &LevelLatencies,
) -> SingleCoreResult {
    let mut core = CoreModel::new(CoreModelConfig::default());
    let llc_hit = latencies.l1 + latencies.l2 + latencies.llc;
    let llc_miss = llc_hit + latencies.dram;
    // Policies whose `on_core_access` is the no-op default (all but the
    // perceptron family) skip both the per-access hook call and the
    // `MemoryAccess` reconstruction feeding it — the replay loop then
    // touches only the packed event word of upper-level-serviced events.
    let hook = cache.policy_mut().uses_core_accesses();

    // Demand access bound for the LLC, awaiting its prefetch drains.
    let mut pending = None;
    let mut llc_before = CacheStats::default();
    let events = recording.len();
    for index in 0..=events {
        if index == recording.warmup_events() {
            // Warmup/measure boundary: complete the last warmup access,
            // then reset measurement state exactly as `run` does.
            flush(&mut pending, cache, &mut core, llc_hit, llc_miss);
            core.reset_counters();
            llc_before = *cache.stats();
        }
        if index == events {
            break;
        }
        // Run the tag-row prefetch a fixed window ahead of the serial
        // update loop; only LLC-reaching events cost a lookahead check
        // beyond one event word.
        let ahead = index + LlcRecording::REPLAY_LOOKAHEAD;
        if ahead < events && recording.reaches_llc(ahead) {
            cache.prefetch_block(recording.block_at(ahead));
        }
        if recording.is_prefetch(index) {
            let _ = cache.access(&recording.access_at(index), true);
            continue;
        }
        flush(&mut pending, cache, &mut core, llc_hit, llc_miss);
        if hook {
            cache
                .policy_mut()
                .on_core_access(&recording.access_at(index));
        }
        match recording.level_at(index) {
            ServiceLevel::L1 => {
                core.retire_access(
                    recording.instructions_at(index),
                    latencies.l1,
                    recording.dependent_at(index),
                );
            }
            ServiceLevel::L2 => {
                core.retire_access(
                    recording.instructions_at(index),
                    latencies.l1 + latencies.l2,
                    recording.dependent_at(index),
                );
            }
            ServiceLevel::Llc => pending = Some(recording.access_at(index)),
        }
    }
    flush(&mut pending, cache, &mut core, llc_hit, llc_miss);

    let stats = HierarchyStats {
        l1d: diff(&recording.end().l1d, &recording.boundary().l1d),
        l2: diff(&recording.end().l2, &recording.boundary().l2),
        llc: diff(cache.stats(), &llc_before),
        instructions: recording.measured_instructions(),
        prefetches_issued: recording.end().prefetches_issued
            - recording.boundary().prefetches_issued,
    };
    SingleCoreResult {
        ipc: core.ipc(),
        mpki: stats.llc_mpki(),
        instructions: core.instructions(),
        cycles: core.drained_cycles(),
        stats,
    }
}

/// Issues a deferred LLC-bound demand access and retires it with the
/// latency its replayed hit/miss outcome dictates.
fn flush(
    pending: &mut Option<mrp_trace::MemoryAccess>,
    cache: &mut Cache,
    core: &mut CoreModel,
    llc_hit: u64,
    llc_miss: u64,
) {
    if let Some(access) = pending.take() {
        let latency = if cache.access(&access, false).is_hit() {
            llc_hit
        } else {
            llc_miss
        };
        core.retire_access(access.instructions() as u32, latency, access.dependent);
    }
}

fn diff(after: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        demand_hits: after.demand_hits - before.demand_hits,
        demand_misses: after.demand_misses - before.demand_misses,
        bypasses: after.bypasses - before.bypasses,
        prefetch_hits: after.prefetch_hits - before.prefetch_hits,
        prefetch_fills: after.prefetch_fills - before.prefetch_fills,
        evictions: after.evictions - before.evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::SingleCoreSim;
    use mrp_cache::policies::{Lru, Srrip};
    use mrp_cache::{AccessInfo, HierarchyConfig, ReplacementPolicy};
    use mrp_trace::workloads;
    use std::sync::{Arc, Mutex};

    fn policies(config: &HierarchyConfig) -> Vec<Box<dyn ReplacementPolicy + Send>> {
        vec![
            Box::new(Lru::new(config.llc.sets(), config.llc.associativity())),
            Box::new(Srrip::new(config.llc.sets(), config.llc.associativity())),
        ]
    }

    fn check_workload(workload: usize, warmup: u64, measure: u64, seed: u64) {
        let config = HierarchyConfig::single_thread();
        let suite = workloads::suite();
        let w = &suite[workload];
        let recording = LlcRecording::record(w.name(), w.trace(seed), &config, warmup, measure);
        for (full_policy, replay_policy) in policies(&config).into_iter().zip(policies(&config)) {
            let name = full_policy.name().to_string();
            let mut sim = SingleCoreSim::new(config, full_policy, w.trace(seed));
            let full = sim.run(warmup, measure);
            let mut cache = Cache::new(config.llc, replay_policy);
            let replayed = replay_single(&recording, &mut cache, &config.latencies);
            assert_eq!(
                full.ipc.to_bits(),
                replayed.ipc.to_bits(),
                "{name}/{workload}: ipc diverged ({} vs {})",
                full.ipc,
                replayed.ipc
            );
            assert_eq!(
                full.mpki.to_bits(),
                replayed.mpki.to_bits(),
                "{name}/{workload}: mpki diverged ({} vs {})",
                full.mpki,
                replayed.mpki
            );
            assert_eq!(
                full.instructions, replayed.instructions,
                "{name}/{workload}"
            );
            assert_eq!(full.cycles, replayed.cycles, "{name}/{workload}");
            assert_eq!(full.stats, replayed.stats, "{name}/{workload}");
        }
    }

    #[test]
    fn replay_is_bit_identical_on_stream_workload() {
        check_workload(0, 20_000, 60_000, 1);
    }

    #[test]
    fn replay_is_bit_identical_on_loop_workload() {
        check_workload(4, 30_000, 50_000, 2);
    }

    #[test]
    fn replay_is_bit_identical_on_pointer_chase() {
        check_workload(9, 10_000, 40_000, 3);
    }

    #[test]
    fn replay_is_bit_identical_without_warmup() {
        check_workload(12, 0, 50_000, 4);
    }

    /// LRU that logs `(block, is_prefetch)` of every LLC access it sees.
    /// `replay_single` wants a `Send` policy in a `Cache`, so the log is
    /// shared with the test.
    struct LoggingLru {
        inner: Lru,
        log: Arc<Mutex<Vec<(u64, bool)>>>,
    }

    impl ReplacementPolicy for LoggingLru {
        fn name(&self) -> &str {
            "logging-lru"
        }
        fn on_access(&mut self, info: &AccessInfo) {
            self.log
                .lock()
                .expect("test log")
                .push((info.block, info.is_prefetch));
            self.inner.on_access(info);
        }
        fn on_hit(&mut self, info: &AccessInfo, way: u32) {
            self.inner.on_hit(info, way);
        }
        fn choose_victim(&mut self, info: &AccessInfo, occupants: &[u64]) -> u32 {
            self.inner.choose_victim(info, occupants)
        }
        fn on_fill(&mut self, info: &AccessInfo, way: u32) {
            self.inner.on_fill(info, way);
        }
    }

    /// The LLC operations `replay` shows a logging LRU.
    fn llc_log(replay: impl FnOnce(&mut Cache)) -> Vec<(u64, bool)> {
        let config = HierarchyConfig::single_thread();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut cache = Cache::new(
            config.llc,
            Box::new(LoggingLru {
                inner: Lru::new(config.llc.sets(), config.llc.associativity()),
                log: log.clone(),
            }),
        );
        replay(&mut cache);
        let log = log.lock().expect("test log");
        log.clone()
    }

    #[test]
    fn mpki_and_timing_replay_show_the_llc_the_same_operations() {
        let config = HierarchyConfig::single_thread();
        let mut longest_drain = (0, "");
        for w in workloads::suite() {
            let rec = LlcRecording::record(w.name(), w.trace(6), &config, 5_000, 30_000);
            let mut visited = Vec::new();
            rec.for_each_llc(|i| visited.push(i));
            assert_eq!(visited.len(), rec.llc_len(), "{}", w.name());
            assert!(visited.iter().all(|&i| i < rec.len()), "{}", w.name());
            visited.sort_unstable();
            visited.dedup();
            assert_eq!(visited.len(), rec.llc_len(), "{}", w.name());

            let fast = llc_log(|cache| rec.replay_llc(cache));
            let timed = llc_log(|cache| {
                replay_single(&rec, cache, &config.latencies);
            });
            assert!(!fast.is_empty(), "{}: no LLC operations", w.name());
            assert_eq!(fast.len(), rec.llc_len(), "{}", w.name());
            assert!(
                fast == timed,
                "{}: replay_llc and replay_single differ",
                w.name()
            );

            // Longest run of consecutive prefetch fills in emission order.
            let mut run = 0;
            for i in 0..rec.len() {
                run = if rec.is_prefetch(i) { run + 1 } else { 0 };
                longest_drain = longest_drain.max((run, w.name()));
            }
        }
        assert!(
            longest_drain.0 >= 4,
            "no member drains a long prefetch run: {longest_drain:?}"
        );
    }
}
