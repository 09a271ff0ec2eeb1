//! The sharded serving fleet: per-tenant `PredictionEngine`s behind
//! per-core shard workers.
//!
//! # Shard ownership and determinism
//!
//! Every tenant owns a complete engine — its own LLC and predictor
//! state — so tenants never share microarchitectural state. A shard is
//! purely a *worker grouping*: tenant `t` is routed to shard
//! `t % shards`, and each round the shards drain their tenants' traffic
//! in parallel (`mrp_runtime::map_indexed`, one job per shard). Because
//! tenant quotas are pure functions of `(config, tenant, round)`
//! (`crate::traffic`) and engines are tenant-private, per-tenant results
//! are bit-identical for any shard count — resharding a fleet is a pure
//! performance decision, never a results decision. The
//! `resharding_is_bit_identical` test holds the fleet to this.
//!
//! # Delivery
//!
//! Within a shard, each tenant's round traffic is delivered to its
//! engine in [`HIERARCHY_BATCH`]-sized `submit_batch` calls, the same
//! group size the hierarchy's LLC front-end uses. The engine consults
//! the predictor once per access, exactly as in simulation.

use std::sync::Mutex;
use std::time::Instant;

use mrp_baselines::PolicyKind;
use mrp_cache::{CacheConfig, HIERARCHY_BATCH};
use mrp_core::mpppb::CONFIDENCE_BINS;
use mrp_core::{Decisions, EngineStats, PredictionEngine, RuntimeOptions};
use mrp_obs::{FleetManifest, ShardTelemetry};
use mrp_trace::MemoryAccess;

use crate::traffic::{TenantTraffic, TrafficConfig};

/// Fleet construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Traffic model (tenant count, seed, round volume).
    pub traffic: TrafficConfig,
    /// Shard (worker) count; tenants are routed `tenant % shards`.
    pub shards: usize,
    /// Policy every tenant engine runs.
    pub policy: PolicyKind,
    /// Per-tenant LLC geometry.
    pub llc: CacheConfig,
    /// Process-wide execution knobs, installed at fleet construction.
    pub options: RuntimeOptions,
    /// Whether engines keep per-decision confidence histograms.
    pub track_confidence: bool,
}

impl FleetConfig {
    /// A small default fleet: `tenants` tenants over the single-thread
    /// LLC geometry under MPPPB, seeded traffic, telemetry on.
    pub fn new(tenants: usize, shards: usize, seed: u64) -> Self {
        FleetConfig {
            traffic: TrafficConfig {
                tenants,
                seed,
                round_quota: 64 * 1024,
            },
            shards,
            policy: PolicyKind::MpppbSingle,
            llc: CacheConfig::llc_single(),
            options: RuntimeOptions::default(),
            track_confidence: true,
        }
    }
}

/// One tenant's serving state: traffic source plus its private engine.
struct TenantState {
    traffic: TenantTraffic,
    engine: PredictionEngine,
}

/// One shard: the tenants it owns plus drain scratch and counters.
struct ShardState {
    tenants: Vec<TenantState>,
    /// Scratch ingest queue, refilled and drained every round.
    queue: Vec<MemoryAccess>,
    /// Largest ingest backlog any round enqueued on this shard.
    queue_depth_peak: u64,
    /// Outcome totals across all tenants (mirrors the engines' own
    /// tallies; kept here so telemetry needs no tenant walk).
    totals: Decisions,
    /// Time spent in the serving drain (`submit_batch`), excluding the
    /// simulated clients' traffic generation: the shard's service clock.
    busy_ns: u64,
    /// Accesses drained before the current measurement window opened
    /// ([`Fleet::reset_drain_window`]); throughput is computed over the
    /// window only, cumulative totals are untouched.
    drained_offset: u64,
}

impl ShardState {
    fn run_round(&mut self, traffic: &TrafficConfig, round: u64) -> u64 {
        let mut processed = 0;
        for tenant in &mut self.tenants {
            // Ingest: the simulated clients produce the round's traffic.
            // This half is client work — it is deliberately outside the
            // busy clock so shard throughput measures the service.
            self.queue.clear();
            tenant.traffic.fill(traffic, round, &mut self.queue);
            self.queue_depth_peak = self.queue_depth_peak.max(self.queue.len() as u64);
            // Drain: the service consumes the queue. Only this half is
            // billed to `busy_ns` (the serving drain rate).
            let start = Instant::now();
            for batch in self.queue.chunks(HIERARCHY_BATCH) {
                let decisions = tenant.engine.submit_batch(batch);
                self.totals.merge(&decisions);
                processed += decisions.processed;
            }
            self.busy_ns += start.elapsed().as_nanos() as u64;
        }
        processed
    }

    fn telemetry(&self, shard: u64) -> ShardTelemetry {
        let mut confidence = vec![0u64; CONFIDENCE_BINS];
        let mut tracked = false;
        for tenant in &self.tenants {
            if let Some(hist) = tenant.engine.cache().policy().confidence_histogram() {
                tracked = true;
                for (total, bin) in confidence.iter_mut().zip(hist) {
                    *total += bin;
                }
            }
        }
        ShardTelemetry {
            shard,
            tenants: self.tenants.len() as u64,
            processed: self.totals.processed,
            hits: self.totals.hits,
            misses: self.totals.misses,
            bypassed: self.totals.bypassed,
            queue_depth_peak: self.queue_depth_peak,
            accesses_per_sec: if self.busy_ns == 0 {
                0.0
            } else {
                (self.totals.processed - self.drained_offset) as f64 * 1e9 / self.busy_ns as f64
            },
            confidence: if tracked { confidence } else { Vec::new() },
        }
    }
}

/// The running fleet.
pub struct Fleet {
    config: FleetConfig,
    /// Shard states behind mutexes so the per-round fan-out can borrow
    /// them mutably through `&self` (one job per shard, no contention).
    shards: Vec<Mutex<ShardState>>,
    rounds: u64,
    processed: u64,
    started: Instant,
    obs_accesses: mrp_obs::Counter,
    obs_rounds: mrp_obs::Counter,
    obs_queue_depth: mrp_obs::Gauge,
}

impl Fleet {
    /// Builds the fleet: installs the runtime options, opens every
    /// tenant's stream, and constructs one engine per tenant through the
    /// `PredictionEngine` facade.
    ///
    /// # Panics
    ///
    /// Panics if the config has zero tenants or zero shards.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.traffic.tenants > 0, "fleet needs at least 1 tenant");
        assert!(config.shards > 0, "fleet needs at least 1 shard");
        config.options.install();
        let mut shards: Vec<ShardState> = (0..config.shards)
            .map(|_| ShardState {
                tenants: Vec::new(),
                queue: Vec::new(),
                queue_depth_peak: 0,
                totals: Decisions::default(),
                busy_ns: 0,
                drained_offset: 0,
            })
            .collect();
        for spec in config.traffic.tenant_specs() {
            let engine = config
                .policy
                .engine(config.llc)
                .label(format!("tenant-{}", spec.tenant))
                .track_confidence(config.track_confidence)
                .build();
            shards[spec.tenant % config.shards]
                .tenants
                .push(TenantState {
                    traffic: TenantTraffic::open(spec),
                    engine,
                });
        }
        Fleet {
            config,
            shards: shards.into_iter().map(Mutex::new).collect(),
            rounds: 0,
            processed: 0,
            started: Instant::now(),
            obs_accesses: mrp_obs::counter("serve.accesses"),
            obs_rounds: mrp_obs::counter("serve.rounds"),
            obs_queue_depth: mrp_obs::gauge("serve.queue_depth"),
        }
    }

    /// The fleet's construction parameters.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Rounds completed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Accesses processed across all shards.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Aggregate wall throughput since construction: processed accesses
    /// over wall-clock time. This includes the simulated clients'
    /// traffic generation — the cost of hosting the load generator in
    /// the same process — so it is a lower bound on the service rate.
    pub fn wall_accesses_per_sec(&self) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.processed as f64 / secs
        }
    }

    /// Aggregate fleet drain throughput: processed accesses over total
    /// shard busy time (time inside the engine drain only). This is the
    /// service-side sustained rate — what the fleet serves per second of
    /// serving work — and the number the bench snapshot gates on; in a
    /// real deployment traffic generation happens on the clients.
    pub fn drain_accesses_per_sec(&self) -> f64 {
        let (mut busy_ns, mut drained) = (0u64, 0u64);
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            busy_ns += shard.busy_ns;
            drained += shard.totals.processed - shard.drained_offset;
        }
        if busy_ns == 0 {
            0.0
        } else {
            drained as f64 * 1e9 / busy_ns as f64
        }
    }

    /// Reopens the drain measurement window: throughput (per shard and
    /// aggregate) is reported from this point on, so warmup rounds —
    /// where every tenant's cold LLC misses and trains on everything —
    /// don't dilute the steady-state rate. Cumulative outcome totals and
    /// the wall clock are unaffected.
    pub fn reset_drain_window(&mut self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard poisoned");
            shard.busy_ns = 0;
            shard.drained_offset = shard.totals.processed;
        }
    }

    /// Runs one round: every shard drains its tenants' round traffic in
    /// parallel. Returns accesses processed this round.
    pub fn run_round(&mut self) -> u64 {
        let round = self.rounds;
        let traffic = self.config.traffic;
        let counts = mrp_runtime::map_indexed(self.shards.len(), |i| {
            let mut shard = self.shards[i].lock().expect("shard poisoned");
            shard.run_round(&traffic, round)
        });
        let processed: u64 = counts.iter().sum();
        self.rounds += 1;
        self.processed += processed;
        self.obs_accesses.add(processed);
        self.obs_rounds.add(1);
        for shard in &self.shards {
            let depth = shard.lock().expect("shard poisoned").queue_depth_peak;
            self.obs_queue_depth.set(depth as i64);
        }
        processed
    }

    /// Runs `rounds` rounds; returns total accesses processed.
    pub fn run_rounds(&mut self, rounds: u64) -> u64 {
        (0..rounds).map(|_| self.run_round()).sum()
    }

    /// Point-in-time snapshot of every tenant engine, tenant-id order —
    /// the per-tenant results surface the determinism guarantee is
    /// stated over.
    pub fn tenant_snapshots(&self) -> Vec<EngineStats> {
        let mut snapshots: Vec<(usize, EngineStats)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            for tenant in &shard.tenants {
                snapshots.push((tenant.traffic.spec().tenant, tenant.engine.snapshot()));
            }
        }
        snapshots.sort_by_key(|(t, _)| *t);
        snapshots.into_iter().map(|(_, s)| s).collect()
    }

    /// The schema-versioned fleet manifest for the current state.
    pub fn manifest(&self) -> FleetManifest {
        FleetManifest {
            seed: self.config.traffic.seed,
            rounds: self.rounds,
            tenants: self.config.traffic.tenants as u64,
            policy: self.config.policy.name().to_string(),
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| s.lock().expect("shard poisoned").telemetry(i as u64))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(tenants: usize, shards: usize) -> Fleet {
        let mut config = FleetConfig::new(tenants, shards, 7);
        config.traffic.round_quota = 4096;
        Fleet::new(config)
    }

    #[test]
    fn resharding_is_bit_identical_per_tenant() {
        // The tentpole determinism guarantee: the same tenant mix on 1
        // and 4 shards yields bit-identical per-tenant stats.
        let mut one = fleet(6, 1);
        let mut four = fleet(6, 4);
        one.run_rounds(20);
        four.run_rounds(20);
        let a = one.tenant_snapshots();
        let b = four.tenant_snapshots();
        assert_eq!(a.len(), 6);
        assert_eq!(a, b);
        // And the streams actually exercised the caches.
        assert!(a.iter().all(|s| s.processed > 0));
        assert!(a.iter().any(|s| s.llc.demand_hits > 0));
    }

    #[test]
    fn manifest_validates_and_matches_fleet_state() {
        let mut f = fleet(5, 2);
        f.run_rounds(8);
        let manifest = f.manifest();
        let parsed = mrp_obs::fleet::validate(&manifest.render()).expect("valid manifest");
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.processed(), f.processed());
        assert_eq!(parsed.rounds, 8);
        assert_eq!(parsed.shards.len(), 2);
        // Confidence tracking is on by default: MPPPB histograms are
        // present and account for every prediction.
        for shard in &parsed.shards {
            assert_eq!(shard.confidence.len(), CONFIDENCE_BINS);
            assert_eq!(shard.confidence.iter().sum::<u64>(), shard.processed);
            assert!(shard.queue_depth_peak > 0);
        }
    }

    #[test]
    fn tenants_route_round_robin_and_totals_add_up() {
        let mut f = fleet(5, 2);
        f.run_rounds(4);
        let manifest = f.manifest();
        // 5 tenants over 2 shards: 3 + 2.
        assert_eq!(manifest.shards[0].tenants, 3);
        assert_eq!(manifest.shards[1].tenants, 2);
        let tenant_total: u64 = f.tenant_snapshots().iter().map(|s| s.processed).sum();
        assert_eq!(tenant_total, f.processed());
        assert_eq!(manifest.processed(), f.processed());
    }
}
