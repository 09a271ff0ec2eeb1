//! Process-global memoized recording cache for record-once/replay-many.
//!
//! Every single-thread experiment cell is `(workload, policy)` at some
//! `(seed, warmup, measure)`. The stream reaching the LLC is independent
//! of the LLC policy *and* geometry, so the first cell to ask for a
//! workload's stream records it once (trace generation + L1/L2 +
//! prefetcher) and every other cell — any policy, any figure driver,
//! any LLC size — replays the shared recording. Keys deliberately omit
//! the LLC geometry: `standalone_ipcs` replays the same recordings
//! against the 8MB multi-core LLC that Fig. 6/7 replay against the 2MB
//! single-thread LLC.
//!
//! Concurrency: fan-outs from `mrp_runtime` hit the cache from many
//! workers; [`mrp_runtime::Memo`] guarantees exactly one worker records
//! a given key while the rest block for the result.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mrp_cache::replay::LlcRecording;
use mrp_cache::HierarchyConfig;
use mrp_runtime::Memo;
use mrp_search::FastEvaluator;
use mrp_trace::Workload;

/// Recording identity: (workload id, seed, warmup, measure). LLC
/// geometry is deliberately absent — recordings are geometry-independent.
type Key = (usize, u64, u64, u64);

static RECORDINGS: OnceLock<Memo<Key, Arc<LlcRecording>>> = OnceLock::new();

/// Default bound on cached recordings. Generous relative to any single
/// driver (suite size × the handful of scale presets it touches), so
/// eviction only engages in long sweeps that would otherwise grow the
/// cache without bound.
///
/// A recording holds 8 bytes per event plus one LLC-mask bit
/// ([`LlcRecording::heap_bytes`]). At fig6's default 4M warmup / 20M
/// measure scale (seed 1) a suite member records 5.1–21.5M events and
/// holds 41–175 MB; the 33-member suite holds 1.95 GB, so 64 recordings
/// at that scale come to about 3.8 GB. The `recording.memo.bytes` gauge
/// reports what the cache actually holds.
pub const DEFAULT_RECORDING_CAP: usize = 64;

/// Current recording-cache bound; 0 means unbounded.
static RECORDING_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_RECORDING_CAP);

/// Least-recently-used order over cached keys (front = coldest), each
/// with its recording's [`LlcRecording::heap_bytes`].
static LRU_ORDER: OnceLock<Mutex<VecDeque<(Key, usize)>>> = OnceLock::new();

/// Memo telemetry handles, resolved once.
struct MemoTelemetry {
    hits: mrp_obs::Counter,
    misses: mrp_obs::Counter,
    evictions: mrp_obs::Counter,
    bytes: mrp_obs::Gauge,
}

fn memo_telemetry() -> &'static MemoTelemetry {
    static TELEMETRY: OnceLock<MemoTelemetry> = OnceLock::new();
    TELEMETRY.get_or_init(|| MemoTelemetry {
        hits: mrp_obs::counter("recording.memo.hits"),
        misses: mrp_obs::counter("recording.memo.misses"),
        evictions: mrp_obs::counter("recording.memo.evictions"),
        bytes: mrp_obs::gauge("recording.memo.bytes"),
    })
}

fn lru_order() -> &'static Mutex<VecDeque<(Key, usize)>> {
    LRU_ORDER.get_or_init(|| Mutex::new(VecDeque::new()))
}

fn memo() -> &'static Memo<Key, Arc<LlcRecording>> {
    RECORDINGS.get_or_init(Memo::new)
}

/// The recording-cache bound (number of recordings); 0 = unbounded.
pub fn recording_cap() -> usize {
    RECORDING_CAP.load(Ordering::Relaxed)
}

/// Sets the recording-cache bound. `0` disables eviction. Shrinking the
/// cap evicts the coldest entries on the next [`recording_for`] call,
/// not immediately.
pub fn set_recording_cap(cap: usize) {
    RECORDING_CAP.store(cap, Ordering::Relaxed);
}

/// Marks `key` (whose recording holds `bytes`) most-recently-used and
/// evicts the coldest keys beyond the cap. Returns the number of
/// evictions performed and the heap bytes the cached recordings hold
/// afterwards.
fn touch_and_evict(key: Key, bytes: usize) -> (u64, usize) {
    let cap = recording_cap();
    let mut order = lru_order().lock().expect("recording LRU poisoned");
    if let Some(pos) = order.iter().position(|(k, _)| *k == key) {
        order.remove(pos);
    }
    order.push_back((key, bytes));
    let mut evicted = 0;
    if cap > 0 {
        while order.len() > cap {
            let (coldest, _) = order.pop_front().expect("len > cap > 0");
            if memo().remove(&coldest) {
                evicted += 1;
            }
        }
    }
    (evicted, order.iter().map(|(_, b)| b).sum())
}

/// The shared recording of `workload` at `(seed, warmup, measure)`,
/// recorded on first request and memoized for every later caller.
///
/// The cache is LRU-bounded by [`recording_cap`]; hits, misses, and
/// evictions are surfaced through `mrp_obs` as
/// `recording.memo.{hits,misses,evictions}` when telemetry is enabled,
/// and the heap bytes of the cached recordings as the
/// `recording.memo.bytes` gauge.
pub fn recording_for(
    workload: &Workload,
    seed: u64,
    warmup: u64,
    measure: u64,
) -> Arc<LlcRecording> {
    let key = (workload.id().0, seed, warmup, measure);
    let (recording, hit) = memo().get_or_compute_tracked(key, || {
        let _phase = mrp_obs::phase("record");
        Arc::new(LlcRecording::record(
            workload.name(),
            workload.trace(seed),
            &HierarchyConfig::single_thread(),
            warmup,
            measure,
        ))
    });
    let tel = memo_telemetry();
    if hit {
        tel.hits.incr();
    } else {
        tel.misses.incr();
    }
    let (evicted, bytes) = touch_and_evict(key, recording.heap_bytes());
    tel.evictions.add(evicted);
    tel.bytes.set(bytes as i64);
    recording
}

/// Pre-records a set of workloads in parallel through the runtime, so a
/// following (workload × policy) fan-out replays from the first cell
/// instead of serializing all recordings behind whichever worker asked
/// first.
pub fn prerecord(workloads: &[Workload], seed: u64, warmup: u64, measure: u64) {
    mrp_runtime::par_map(workloads, |w| {
        recording_for(w, seed, warmup, measure);
    });
}

/// Builds a [`FastEvaluator`] whose recordings come from the shared
/// recording cache (warmup 0, matching the fast simulator's cold
/// recording), so the search loops and the figure drivers never record
/// the same `(workload, seed, instructions)` stream twice.
pub fn fast_evaluator(workloads: &[Workload], seed: u64, instructions: u64) -> FastEvaluator {
    prerecord(workloads, seed, 0, instructions);
    let recordings = workloads
        .iter()
        .map(|w| recording_for(w, seed, 0, instructions))
        .collect();
    FastEvaluator::from_recordings(recordings)
}

/// Number of recordings currently cached (diagnostics).
pub fn cached_recordings() -> usize {
    memo().len()
}

/// Drops every cached recording (e.g. between sweeps over disjoint
/// parameter sets).
pub fn clear_recordings() {
    memo().clear();
    lru_order().lock().expect("recording LRU poisoned").clear();
    memo_telemetry().bytes.set(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_trace::workloads;

    #[test]
    fn recordings_are_memoized_per_key() {
        let suite = workloads::suite();
        // Unusual parameters so no other test shares the key.
        let a = recording_for(&suite[0], 0xDEAD, 1_000, 3_000);
        let b = recording_for(&suite[0], 0xDEAD, 1_000, 3_000);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one recording");
        let c = recording_for(&suite[0], 0xDEAD, 1_000, 4_000);
        assert!(!Arc::ptr_eq(&a, &c), "different measure must re-record");
        assert!(cached_recordings() >= 2);
    }
}
