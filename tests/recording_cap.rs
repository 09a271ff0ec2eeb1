//! LRU bound on the process-global recording memo, and the
//! `recording.memo.bytes` gauge tracking what it holds. Isolated in its
//! own test binary: shrinking the cap and switching telemetry on are
//! process-wide and would race any parallel test that relies on
//! memoized recordings staying resident.

use std::sync::Arc;

use mrp_experiments::recording::{
    cached_recordings, clear_recordings, recording_cap, recording_for, set_recording_cap,
    DEFAULT_RECORDING_CAP,
};
use mrp_trace::workloads;

#[test]
fn recording_memo_is_lru_bounded() {
    assert_eq!(recording_cap(), DEFAULT_RECORDING_CAP);
    mrp_obs::set_enabled(true);
    let memo_bytes = mrp_obs::gauge("recording.memo.bytes");
    clear_recordings();
    set_recording_cap(2);

    let suite = workloads::suite();
    let w = &suite[0];
    // Distinct seeds -> distinct keys; tiny windows keep this fast.
    let first = recording_for(w, 0xA110, 500, 2_000);
    let second = recording_for(w, 0xA111, 500, 2_000);
    assert_eq!(cached_recordings(), 2);
    let held = first.heap_bytes() + second.heap_bytes();
    assert_eq!(memo_bytes.get(), held as i64);

    // Third insertion evicts the coldest key (the first).
    let third = recording_for(w, 0xA112, 500, 2_000);
    assert_eq!(cached_recordings(), 2, "cap must bound the cache");
    let held = second.heap_bytes() + third.heap_bytes();
    assert_eq!(memo_bytes.get(), held as i64, "eviction must release bytes");

    // Re-requesting the evicted key re-records rather than reusing.
    let first_again = recording_for(w, 0xA110, 500, 2_000);
    assert!(
        !Arc::ptr_eq(&first, &first_again),
        "evicted recording must be recomputed"
    );

    // Touching an entry protects it: request 0xA112 (making 0xA110 the
    // coldest again), then insert a fresh key — 0xA112 must survive.
    let third_touched = recording_for(w, 0xA112, 500, 2_000);
    let _fourth = recording_for(w, 0xA113, 500, 2_000);
    let third_after = recording_for(w, 0xA112, 500, 2_000);
    assert!(
        Arc::ptr_eq(&third_touched, &third_after),
        "recently used recording must survive eviction"
    );

    // Cap 0 disables eviction entirely.
    set_recording_cap(0);
    for seed in 0xB000..0xB008u64 {
        recording_for(w, seed, 500, 2_000);
    }
    assert!(cached_recordings() >= 8, "cap 0 must not evict");

    set_recording_cap(DEFAULT_RECORDING_CAP);
    clear_recordings();
    assert_eq!(memo_bytes.get(), 0);
}
