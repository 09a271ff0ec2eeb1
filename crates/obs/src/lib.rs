//! Run telemetry for the multiperspective reuse prediction stack.
//!
//! Every production training/inference system carries an observability
//! layer; this crate is that layer for the simulation stack, std-only
//! and dependency-free. Three pieces:
//!
//! * [`registry`] — process-global hierarchical **counters** and
//!   **gauges** with dotted names (`runtime.jobs`,
//!   `runtime.queue_depth`). Atomic, and no-ops while telemetry is disabled,
//!   so instrumented hot paths cost one relaxed load + branch when a
//!   driver runs without `--metrics`.
//! * [`phase`] — scoped wall-clock **phase timers** (`record`,
//!   `replay`, `simulate`, `report`): a guard accumulates its elapsed
//!   time into a per-phase total on drop. Concurrent guards from pool
//!   workers sum, so parallel phases read as aggregate busy time.
//! * [`manifest`] — a schema-versioned **JSONL run manifest** writer
//!   ([`RunManifest`]) capturing CLI args, `git describe`, thread
//!   count, per-cell results (workload × policy → metrics), per-phase
//!   wall-clock, and a snapshot of every registered counter and gauge.
//!   [`manifest::validate`] re-parses and schema-checks a manifest
//!   (used by the `manifest_check` driver and the round-trip tests).
//!
//! Telemetry is **opt-in**: everything is disabled until
//! [`set_enabled`]`(true)` (the experiment drivers wire their
//! `--metrics` flag here). Committed goldens and benchmark numbers are
//! bit-identical either way because instrumentation never feeds back
//! into simulation state.
//!
//! JSON encoding/parsing is the minimal hand-rolled [`json::Json`]
//! value type — no serde, keeping the crate std-only per the repo's
//! dependency policy.

pub mod fleet;
pub mod json;
pub mod manifest;
pub mod phase;
pub mod registry;

pub use fleet::{FleetManifest, ShardTelemetry, FLEET_SCHEMA};
pub use json::Json;
pub use manifest::{validate, validate_dir, ManifestSummary, RunManifest, SCHEMA};
pub use phase::{phase, phases_snapshot, PhaseGuard, PhaseStat};
pub use registry::{counter, gauge, registry_snapshot, Counter, Gauge};

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-global telemetry switch; everything is a no-op while false.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry on or off process-wide (the drivers' `--metrics`
/// flag). Counters, gauges, and phase guards created while disabled
/// still exist — they just don't record.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Resets all telemetry state: zeroes every counter/gauge and clears
/// accumulated phases. For tests and for drivers that emit several
/// manifests from one process.
pub fn reset() {
    registry::reset_registry();
    phase::reset_phases();
}

/// Serializes tests that toggle the process-global [`enabled`] flag.
#[cfg(test)]
pub(crate) fn test_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
