//! Std-only parallel execution for independent simulation jobs.
//!
//! Every experiment in this repository is embarrassingly parallel: each
//! (workload × policy) simulation cell and each feature-search candidate
//! is an independent run that owns its own trace stream and policy
//! instance. This crate provides the one fan-out primitive they all
//! share — [`map_indexed`] — built on [`std::thread::scope`] with an
//! atomic work-queue cursor. It caches nothing: callers own results.
//!
//! # Determinism
//!
//! Results are **bit-identical and order-stable vs. the serial path**:
//! job `i` computes exactly what `(0..jobs).map(f)` would compute at
//! position `i` (jobs share no mutable state), and results are collected
//! *by index*, never by completion order. Callers that reduce floating
//! point across jobs must fold the returned `Vec` in index order to keep
//! the reduction order identical to a serial run; [`map_indexed`]
//! guarantees the vector itself is index-ordered.
//!
//! # Thread-count resolution
//!
//! The worker count is a process-global resolved in this order:
//!
//! 1. [`set_threads`] with a nonzero value (the experiment binaries wire
//!    their `--threads N` flag here),
//! 2. the `MRP_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! # Nesting
//!
//! Calls to [`map_indexed`] from *inside* a pool worker run serially on
//! that worker. Outer-level fan-out already owns every core; nested
//! fan-out would multiply thread counts without adding parallelism.
//!
//! # Telemetry
//!
//! When [`mrp_obs`] is enabled (the drivers' `--metrics` flag), every
//! fan-out reports into the registry: `runtime.fanouts` / `runtime.jobs`
//! counters, per-job busy time in `runtime.job_ns`, fan-out wall-clock
//! in `runtime.fanout_ns` (utilization = `job_ns / (fanout_ns ×
//! workers)`), and the `runtime.queue_depth` gauge whose peak is the
//! largest job batch any fan-out enqueued. All of it is no-op atomics
//! when telemetry is off, so the scheduling and results are untouched
//! either way.

pub mod cli;

pub use cli::Args;

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Cached telemetry handles (registry lookups once per process).
struct Telemetry {
    fanouts: mrp_obs::Counter,
    jobs: mrp_obs::Counter,
    job_ns: mrp_obs::Counter,
    fanout_ns: mrp_obs::Counter,
    queue_depth: mrp_obs::Gauge,
    workers: mrp_obs::Gauge,
}

fn telemetry() -> &'static Telemetry {
    static TELEMETRY: OnceLock<Telemetry> = OnceLock::new();
    TELEMETRY.get_or_init(|| Telemetry {
        fanouts: mrp_obs::counter("runtime.fanouts"),
        jobs: mrp_obs::counter("runtime.jobs"),
        job_ns: mrp_obs::counter("runtime.job_ns"),
        fanout_ns: mrp_obs::counter("runtime.fanout_ns"),
        queue_depth: mrp_obs::gauge("runtime.queue_depth"),
        workers: mrp_obs::gauge("runtime.workers"),
    })
}

/// Global worker-count override: 0 = unset (fall back to env/hardware).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Cached env/hardware resolution (so a malformed `MRP_THREADS` warns
/// once, not once per fan-out).
static RESOLVED: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Whether the current thread is a pool worker (nested fan-out guard).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The machine's available parallelism, defaulting to 1 if unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

fn env_threads() -> Option<usize> {
    let raw = std::env::var("MRP_THREADS").ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            eprintln!(
                "warning: ignoring MRP_THREADS={raw:?} (expected a positive integer); \
                 using available parallelism"
            );
            None
        }
    }
}

/// Sets the global worker count. `0` resets to automatic resolution
/// (`MRP_THREADS`, then available parallelism).
pub fn set_threads(threads: usize) {
    THREADS.store(threads, Ordering::Relaxed);
}

/// The worker count fan-outs will use right now.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => *RESOLVED.get_or_init(|| env_threads().unwrap_or_else(available_parallelism)),
        n => n,
    }
}

/// Runs `f(0), f(1), …, f(jobs - 1)` across the configured worker count
/// (see [`threads`]) and returns the results in index order.
///
/// Jobs must be independent: `f` is shared by reference across workers,
/// so it can only capture `Sync` state. Results are identical to
/// `(0..jobs).map(f).collect()` regardless of the worker count or
/// scheduling.
///
/// # Panics
///
/// If a job panics, the panic is propagated to the caller after all
/// workers have drained (matching [`std::thread::scope`] semantics).
pub fn map_indexed<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_indexed_with(jobs, threads(), f)
}

/// [`map_indexed`] with an explicit worker count (benchmarks and tests).
pub fn map_indexed_with<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, jobs);
    let serial = workers == 1 || IN_POOL.with(Cell::get);
    let tel = mrp_obs::enabled().then(telemetry);
    if let Some(tel) = tel {
        tel.fanouts.incr();
        tel.jobs.add(jobs as u64);
        tel.queue_depth.set(jobs as i64);
        tel.workers.set(if serial { 1 } else { workers as i64 });
    }
    let started = tel.map(|_| Instant::now());
    // Per-job busy time; `tel` is None when telemetry is off, so the
    // instrumented path costs nothing in normal runs.
    let run = |i: usize| -> T {
        match tel {
            Some(tel) => {
                let t0 = Instant::now();
                let out = f(i);
                tel.job_ns.add(t0.elapsed().as_nanos() as u64);
                out
            }
            None => f(i),
        }
    };

    let out = if serial {
        (0..jobs).map(run).collect()
    } else {
        // Work queue: an atomic cursor over 0..jobs. Each worker pulls
        // the next unclaimed index, computes it, and records
        // (index, result) locally; results are merged by index after the
        // scope joins, so completion order cannot affect the output.
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs);
        slots.resize_with(jobs, || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        IN_POOL.with(|flag| flag.set(true));
                        let mut completed = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs {
                                break;
                            }
                            completed.push((i, run(i)));
                        }
                        completed
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(completed) => {
                        for (i, value) in completed {
                            slots[i] = Some(value);
                        }
                    }
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("work queue visits every index exactly once"))
            .collect()
    };
    if let (Some(tel), Some(t0)) = (tel, started) {
        tel.fanout_ns.add(t0.elapsed().as_nanos() as u64);
        tel.queue_depth.set(0);
    }
    out
}

/// Maps `f` over `items` in parallel, preserving input order.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_index_ordered_for_any_worker_count() {
        let serial: Vec<usize> = (0..97).map(|i| i * i + 1).collect();
        for workers in [1, 2, 3, 4, 9] {
            let parallel = map_indexed_with(97, workers, |i| i * i + 1);
            assert_eq!(parallel, serial, "{workers} workers reordered results");
        }
    }

    #[test]
    fn zero_jobs_yield_empty_vec() {
        let out: Vec<u32> = map_indexed_with(0, 4, |_| unreachable!("no jobs"));
        assert!(out.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let runs = AtomicUsize::new(0);
        let out = map_indexed_with(64, 4, |i| {
            runs.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(runs.load(Ordering::Relaxed), 64);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            map_indexed_with(16, 4, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        }));
        let panic = result.expect_err("worker panic must propagate");
        let message = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(message.contains("job 5 exploded"), "got panic {message:?}");
    }

    #[test]
    fn nested_fan_out_runs_serially_on_the_worker() {
        // A nested map_indexed inside a pool job must not spawn its own
        // pool: every nested job runs on the worker thread itself.
        let out = map_indexed_with(4, 4, |outer| {
            let worker = std::thread::current().id();
            map_indexed_with(8, 8, move |inner| {
                assert_eq!(
                    std::thread::current().id(),
                    worker,
                    "nested job escaped its worker thread"
                );
                outer * 8 + inner
            })
        });
        for (outer, inner_results) in out.iter().enumerate() {
            let expected: Vec<usize> = (0..8).map(|i| outer * 8 + i).collect();
            assert_eq!(*inner_results, expected);
        }
    }

    #[test]
    fn telemetry_records_fanouts_only_when_enabled() {
        // The only test in this binary that toggles the global obs flag;
        // concurrent tests may add to the counters while it is on, so
        // assertions are lower bounds.
        mrp_obs::set_enabled(true);
        let jobs_before = mrp_obs::counter("runtime.jobs").get();
        let fanouts_before = mrp_obs::counter("runtime.fanouts").get();
        let out = map_indexed_with(17, 4, |i| i);
        mrp_obs::set_enabled(false);
        assert_eq!(out, (0..17).collect::<Vec<_>>());
        assert!(mrp_obs::counter("runtime.jobs").get() >= jobs_before + 17);
        assert!(mrp_obs::counter("runtime.fanouts").get() > fanouts_before);
        assert!(mrp_obs::gauge("runtime.queue_depth").peak() >= 17);

        let disabled_before = mrp_obs::counter("runtime.jobs").get();
        map_indexed_with(8, 2, |i| i);
        assert_eq!(
            mrp_obs::counter("runtime.jobs").get(),
            disabled_before,
            "disabled fan-out must not record"
        );
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<String> = (0..20).map(|i| format!("w{i}")).collect();
        let lengths = par_map(&items, |s| s.len());
        let expected: Vec<usize> = items.iter().map(|s| s.len()).collect();
        assert_eq!(lengths, expected);
    }

    #[test]
    fn global_thread_count_round_trips() {
        // One test owns all global-state assertions so parallel test
        // execution cannot race on the THREADS override.
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1, "auto resolution must yield at least 1");
        let out = map_indexed(5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }
}
