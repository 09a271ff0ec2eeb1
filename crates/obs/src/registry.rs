//! Process-global hierarchical counter/gauge registry.
//!
//! Names are dotted paths (`runtime.jobs`); the registry is a
//! sorted map so snapshots iterate deterministically. Handles are
//! cheap `Arc` clones — call sites that increment in hot loops should
//! obtain a handle once (e.g. in a `OnceLock`) rather than looking up
//! by name per event.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing event counter.
///
/// Increments are relaxed atomics, and no-ops while telemetry is
/// disabled ([`crate::enabled`]), so a disabled counter costs one load
/// and a predictable branch.
#[derive(Clone, Debug)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` events (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A level gauge with peak tracking (e.g. queue depth).
#[derive(Clone, Debug)]
pub struct Gauge {
    value: Arc<(AtomicI64, AtomicI64)>,
}

impl Gauge {
    /// Sets the level (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.value.0.store(v, Ordering::Relaxed);
            self.value.1.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the level by `delta` (no-op while disabled).
    #[inline]
    pub fn add(&self, delta: i64) {
        if crate::enabled() {
            let now = self.value.0.fetch_add(delta, Ordering::Relaxed) + delta;
            self.value.1.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.0.load(Ordering::Relaxed)
    }

    /// Highest level ever set/reached.
    pub fn peak(&self) -> i64 {
        self.value.1.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
}

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        // Metric state is all atomics, consistent regardless of where a
        // panicking holder stopped; recover rather than cascade.
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The counter registered under `name`, created on first request.
///
/// # Panics
///
/// Panics if `name` is already registered as a gauge.
pub fn counter(name: &str) -> Counter {
    let found = {
        let mut map = registry();
        match map.entry(name.to_string()).or_insert_with(|| {
            Metric::Counter(Counter {
                value: Arc::new(AtomicU64::new(0)),
            })
        }) {
            Metric::Counter(c) => Some(c.clone()),
            Metric::Gauge(_) => None,
        }
    };
    found.unwrap_or_else(|| panic!("{name} is registered as a gauge, not a counter"))
}

/// The gauge registered under `name`, created on first request.
///
/// # Panics
///
/// Panics if `name` is already registered as a counter.
pub fn gauge(name: &str) -> Gauge {
    let found = {
        let mut map = registry();
        match map.entry(name.to_string()).or_insert_with(|| {
            Metric::Gauge(Gauge {
                value: Arc::new((AtomicI64::new(0), AtomicI64::new(i64::MIN))),
            })
        }) {
            Metric::Gauge(g) => Some(g.clone()),
            Metric::Counter(_) => None,
        }
    };
    found.unwrap_or_else(|| panic!("{name} is registered as a counter, not a gauge"))
}

/// A deterministic (name-sorted) snapshot of every registered metric:
/// counters as `(name, value, None)`, gauges as
/// `(name, value, Some(peak))`. Gauges that never recorded report peak
/// equal to their current value.
pub fn registry_snapshot() -> Vec<(String, i64, Option<i64>)> {
    let map = registry();
    map.iter()
        .map(|(name, metric)| match metric {
            Metric::Counter(c) => (name.clone(), c.get() as i64, None),
            Metric::Gauge(g) => {
                let peak = if g.peak() == i64::MIN {
                    g.get()
                } else {
                    g.peak()
                };
                (name.clone(), g.get(), Some(peak))
            }
        })
        .collect()
}

/// Zeroes every registered counter and gauge (handles stay valid).
pub(crate) fn reset_registry() {
    let map = registry();
    for metric in map.values() {
        match metric {
            Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => {
                g.value.0.store(0, Ordering::Relaxed);
                g.value.1.store(i64::MIN, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test owns the global enabled flag to avoid races with
    // parallel tests in this binary; everything flag-dependent lives
    // here.
    #[test]
    fn disabled_metrics_are_no_ops_and_enabled_ones_record() {
        let _guard = crate::test_flag_lock();
        crate::set_enabled(false);
        let c = counter("test.registry.counter");
        let g = gauge("test.registry.gauge");
        c.add(5);
        c.incr();
        g.set(9);
        g.add(3);
        assert_eq!(c.get(), 0, "disabled counter must not record");
        assert_eq!(g.get(), 0, "disabled gauge must not record");

        crate::set_enabled(true);
        c.add(5);
        c.incr();
        assert_eq!(c.get(), 6);
        g.set(4);
        g.add(3);
        g.add(-2);
        assert_eq!(g.get(), 5);
        assert_eq!(g.peak(), 7);
        crate::set_enabled(false);

        // Same name returns the same underlying metric.
        assert_eq!(counter("test.registry.counter").get(), 6);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let _ = counter("test.snap.b");
        let _ = counter("test.snap.a");
        let snap = registry_snapshot();
        let names: Vec<&str> = snap
            .iter()
            .map(|(n, _, _)| n.as_str())
            .filter(|n| n.starts_with("test.snap."))
            .collect();
        assert_eq!(names, vec!["test.snap.a", "test.snap.b"]);
    }

    #[test]
    #[should_panic(expected = "registered as a counter")]
    fn kind_mismatch_panics() {
        let _ = counter("test.kind.mismatch");
        let _ = gauge("test.kind.mismatch");
    }
}
