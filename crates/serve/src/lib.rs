//! Sharded online prediction service over the `PredictionEngine` facade.
//!
//! The ROADMAP's production framing is a reuse-prediction service in
//! front of many users' cache state. This crate is that serving layer,
//! in simulation:
//!
//! * [`traffic`] — the multi-tenant load model: each simulated tenant
//!   draws an infinite access stream from one of the 33 suite
//!   workloads, fleet volume follows Zipf tenant popularity, and
//!   per-tenant burst phases make the load non-stationary.
//! * [`fleet`] — the serving fleet: one `PredictionEngine` (LLC +
//!   predictor) per tenant, each round's tenants drained in parallel
//!   from one `mrp-runtime` work queue, largest first, with
//!   `HIERARCHY_BATCH`-sized delivery into each engine; shards are the
//!   tenants' accounting homes (`tenant % shards`).
//!
//! Telemetry is two-plane: live `mrp-obs` counters/gauges
//! (`serve.accesses`, `serve.rounds`, `serve.queue_depth`) and the
//! periodic schema-versioned fleet manifest
//! (`mrp_obs::fleet`, schema `mrp-fleet-manifest-v1`) that the `status`
//! subcommand and `manifest_check --fleet` read.
//!
//! The core guarantee: per-tenant results are bit-identical across
//! shard counts, because shards only keep counters and cap the fan-out
//! width — every tenant owns its full microarchitectural state and its
//! traffic is a pure function of `(config, tenant, round)`.

pub mod fleet;
pub mod traffic;

pub use fleet::{Fleet, FleetConfig};
pub use traffic::{TenantSpec, TenantTraffic, TrafficConfig};
