//! The sharded serving fleet: per-tenant `PredictionEngine`s, drained
//! each round by a fan-out over tenants.
//!
//! # Work unit, shards and determinism
//!
//! Every tenant owns a complete engine — its own LLC and predictor
//! state — so tenants never share microarchitectural state. The tenant
//! is the unit of work: each round, `mrp_runtime::map_indexed_with`
//! hands the tenants to `min(shards, threads)` workers from one atomic
//! cursor, in tenant-id order. Tenant ids are Zipf popularity ranks, so
//! the largest tenants are claimed first and the thin tail fills in
//! around them, whichever worker frees up.
//!
//! A shard is a tenant's *accounting home*: tenant `t` reports to shard
//! `t % shards`, and the shard count caps the fan-out width. Shards hold
//! only counters; after the fan-out the calling thread merges each
//! tenant's round result into its home shard. Because tenant quotas are
//! pure functions of `(config, tenant, round)` (`crate::traffic`) and
//! engines are tenant-private, per-tenant results are bit-identical for
//! any shard count and any schedule — resharding a fleet is a pure
//! performance decision, never a results decision. The
//! `resharding_is_bit_identical_per_tenant` test holds the fleet to this.
//!
//! # Delivery
//!
//! A tenant generates its round traffic into a private ingest buffer at
//! most `INGEST_SLICE` (64 × [`HIERARCHY_BATCH`]) accesses at a time and
//! delivers each slice to its engine in `HIERARCHY_BATCH`-sized
//! `submit_batch` calls, the same group size the hierarchy's LLC
//! front-end uses. The slice is a whole number of batches, so every
//! batch boundary falls where a whole-round queue would put it. The
//! engine consults the predictor once per access, exactly as in
//! simulation.

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
    /// Shard count: tenant `t` reports to shard `t % shards`, and each
    /// round fans the tenants out over `min(shards, threads)` workers.
    /// Per-tenant results do not depend on it.
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

/// Accesses a tenant generates into its ingest buffer per fill: a whole
/// number of `submit_batch` deliveries, small enough that the buffer
/// stays cache-resident while the engine drains it.
const INGEST_SLICE: usize = 64 * HIERARCHY_BATCH;

/// Builds tenant `tenant`'s engine for `config`.
fn tenant_engine(config: &FleetConfig, tenant: usize) -> PredictionEngine {
    config
        .policy
        .engine(config.llc)
        .label(format!("tenant-{tenant}"))
        .track_confidence(config.track_confidence)
        .build()
}

/// One tenant's serving state: traffic source, private engine and
/// ingest buffer.
struct TenantState {
    traffic: TenantTraffic,
    engine: PredictionEngine,
    /// Up to `INGEST_SLICE` accesses of the current round's traffic.
    ingest: Vec<MemoryAccess>,
}

/// What one tenant's round adds to its home shard.
struct TenantRound {
    decisions: Decisions,
    /// The round's quota: the tenant's ingest backlog as the round opens.
    quota: u64,
    /// Time spent inside `submit_batch`.
    busy_ns: u64,
}

impl TenantState {
    fn run_round(&mut self, traffic: &TrafficConfig, round: u64) -> TenantRound {
        let quota = traffic.quota(self.traffic.spec(), round);
        let mut out = TenantRound {
            decisions: Decisions::default(),
            quota,
            busy_ns: 0,
        };
        let mut left = quota as usize;
        while left > 0 {
            let slice = left.min(INGEST_SLICE);
            left -= slice;
            // Ingest: the simulated clients produce the next slice. This
            // half is client work — it is deliberately outside the busy
            // clock so shard throughput measures the service.
            self.ingest.clear();
            self.traffic.fill_next(slice, &mut self.ingest);
            // Drain: the service consumes the slice. Only this half is
            // billed to `busy_ns` (the serving drain rate).
            let start = Instant::now();
            for batch in self.ingest.chunks(HIERARCHY_BATCH) {
                out.decisions.merge(&self.engine.submit_batch(batch));
            }
            out.busy_ns += start.elapsed().as_nanos() as u64;
        }
        out
    }
}

/// One shard: the counters of its home tenants (`tenant % shards`).
#[derive(Default)]
struct ShardState {
    /// Home tenants.
    tenants: u64,
    /// Largest single-tenant round quota among the home tenants.
    queue_depth_peak: u64,
    /// Outcome totals across the home tenants (mirrors the engines' own
    /// tallies).
    totals: Decisions,
    /// Time the home tenants spent in the serving drain (`submit_batch`),
    /// excluding the simulated clients' traffic generation: the shard's
    /// service clock.
    busy_ns: u64,
    /// Accesses drained before the current measurement window opened
    /// ([`Fleet::reset_drain_window`]); throughput is computed over the
    /// window only, cumulative totals are untouched.
    drained_offset: u64,
}

impl ShardState {
    fn merge(&mut self, round: &TenantRound) {
        self.queue_depth_peak = self.queue_depth_peak.max(round.quota);
        self.totals.merge(&round.decisions);
        self.busy_ns += round.busy_ns;
    }

    /// Telemetry row; `home` yields the shard's home tenants.
    fn telemetry<'a>(
        &self,
        shard: u64,
        home: impl Iterator<Item = &'a PredictionEngine>,
    ) -> ShardTelemetry {
        let mut confidence = vec![0u64; CONFIDENCE_BINS];
        let mut tracked = false;
        for engine in home {
            if let Some(hist) = engine.cache().policy().confidence_histogram() {
                tracked = true;
                for (total, bin) in confidence.iter_mut().zip(hist) {
                    *total += bin;
                }
            }
        }
        ShardTelemetry {
            shard,
            tenants: self.tenants,
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
    /// Tenant states in tenant-id order, behind mutexes so the per-round
    /// fan-out can borrow each one mutably through `&self` (one job per
    /// tenant, no contention).
    tenants: Vec<Mutex<TenantState>>,
    shards: Vec<ShardState>,
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
        let mut shards: Vec<ShardState> =
            (0..config.shards).map(|_| ShardState::default()).collect();
        let tenants = config
            .traffic
            .tenant_specs()
            .into_iter()
            .map(|spec| {
                shards[spec.tenant % config.shards].tenants += 1;
                Mutex::new(TenantState {
                    engine: tenant_engine(&config, spec.tenant),
                    traffic: TenantTraffic::open(spec),
                    ingest: Vec::new(),
                })
            })
            .collect();
        Fleet {
            config,
            tenants,
            shards,
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

    /// Fleet drain rate: accesses processed in the drain window divided
    /// by the busy time (time inside `submit_batch`) *summed* over every
    /// tenant. Tenants drain concurrently on up to `min(shards, threads)`
    /// workers, so this is a per-core service rate — what one worker
    /// serves per second of serving work — not a wall-clock aggregate:
    /// the fleet's wall-clock service capacity is up to the fan-out
    /// width times larger. It excludes traffic generation (in a real
    /// deployment that happens on the clients) and is the number the
    /// bench snapshot gates on.
    pub fn drain_accesses_per_sec(&self) -> f64 {
        let (mut busy_ns, mut drained) = (0u64, 0u64);
        for shard in &self.shards {
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
        for shard in &mut self.shards {
            shard.busy_ns = 0;
            shard.drained_offset = shard.totals.processed;
        }
    }

    /// The fan-out width of a round: one worker per shard, capped by the
    /// runtime's worker count.
    pub fn workers(&self) -> usize {
        self.shards.len().min(mrp_runtime::threads())
    }

    /// Runs one round: the workers drain every tenant's round traffic,
    /// claiming tenants in id order, then each tenant's result is merged
    /// into its home shard. Returns accesses processed this round.
    pub fn run_round(&mut self) -> u64 {
        let round = self.rounds;
        let traffic = self.config.traffic;
        let results = mrp_runtime::map_indexed_with(self.tenants.len(), self.workers(), |t| {
            self.tenants[t]
                .lock()
                .expect("tenant poisoned")
                .run_round(&traffic, round)
        });
        let mut processed = 0;
        for (t, result) in results.iter().enumerate() {
            let home = t % self.shards.len();
            self.shards[home].merge(result);
            processed += result.decisions.processed;
        }
        self.rounds += 1;
        self.processed += processed;
        self.obs_accesses.add(processed);
        self.obs_rounds.add(1);
        for shard in &self.shards {
            self.obs_queue_depth.set(shard.queue_depth_peak as i64);
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
        self.tenants
            .iter()
            .map(|t| t.lock().expect("tenant poisoned").engine.snapshot())
            .collect()
    }

    /// The schema-versioned fleet manifest for the current state.
    pub fn manifest(&self) -> FleetManifest {
        let tenants: Vec<_> = self
            .tenants
            .iter()
            .map(|t| t.lock().expect("tenant poisoned"))
            .collect();
        let stride = self.shards.len();
        FleetManifest {
            seed: self.config.traffic.seed,
            rounds: self.rounds,
            tenants: self.config.traffic.tenants as u64,
            policy: self.config.policy.name().to_string(),
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let home = tenants.iter().skip(i).step_by(stride).map(|t| &t.engine);
                    s.telemetry(i as u64, home)
                })
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
    fn fleet_matches_a_serial_engine_by_engine_drive() {
        // 33 rounds cross two burst-phase boundaries (16-round phases).
        const ROUNDS: u64 = 33;
        let mut config = FleetConfig::new(16, 2, 7);
        config.traffic.round_quota = 5000;
        let traffic = config.traffic;
        let specs = traffic.tenant_specs();
        // The schedule exercises what sliced ingest must get right: a
        // round longer than one ingest slice, and partial last batches.
        let quotas: Vec<usize> = specs
            .iter()
            .flat_map(|spec| (0..ROUNDS).map(move |r| traffic.quota(spec, r) as usize))
            .collect();
        assert!(quotas.iter().any(|&q| q > INGEST_SLICE));
        assert!(quotas.iter().any(|&q| q % HIERARCHY_BATCH != 0));

        let mut fleet = Fleet::new(config);
        fleet.run_rounds(ROUNDS);

        // The same engines driven one by one: each round's whole quota
        // filled at once, then delivered in `HIERARCHY_BATCH` batches.
        let mut serial: Vec<(TenantTraffic, PredictionEngine)> = specs
            .iter()
            .map(|&spec| {
                (
                    TenantTraffic::open(spec),
                    tenant_engine(&config, spec.tenant),
                )
            })
            .collect();
        let mut queue = Vec::new();
        for round in 0..ROUNDS {
            for (source, engine) in &mut serial {
                queue.clear();
                source.fill(&traffic, round, &mut queue);
                for batch in queue.chunks(HIERARCHY_BATCH) {
                    engine.submit_batch(batch);
                }
            }
        }
        let expected: Vec<EngineStats> = serial.iter().map(|(_, e)| e.snapshot()).collect();
        assert_eq!(fleet.tenant_snapshots(), expected);
    }

    #[test]
    fn shard_telemetry_sums_its_home_tenants() {
        const ROUNDS: u64 = 20;
        let (tenants, shards) = (7, 3);
        let mut config = FleetConfig::new(tenants, shards, 7);
        config.traffic.round_quota = 4096;
        // A 256KB LLC fills within the run, so MPPPB starts bypassing.
        config.llc = CacheConfig::new(256 * 1024, 16);
        let mut f = Fleet::new(config);
        f.run_rounds(ROUNDS);
        let snapshots = f.tenant_snapshots();
        let traffic = f.config().traffic;
        let specs = traffic.tenant_specs();
        let manifest = f.manifest();
        let mut bypassed = 0;
        for row in &manifest.shards {
            let home: Vec<usize> = (0..tenants)
                .filter(|t| t % shards == row.shard as usize)
                .collect();
            let sum = |field: fn(&EngineStats) -> u64| -> u64 {
                home.iter().map(|&t| field(&snapshots[t])).sum()
            };
            assert_eq!(row.tenants, home.len() as u64);
            assert_eq!(row.processed, sum(|s| s.processed));
            assert_eq!(row.hits, sum(|s| s.llc.demand_hits));
            assert_eq!(row.misses, sum(|s| s.llc.demand_misses - s.llc.bypasses));
            assert_eq!(row.bypassed, sum(|s| s.llc.bypasses));
            let peak = home
                .iter()
                .flat_map(|&t| {
                    let spec = &specs[t];
                    (0..ROUNDS).map(move |r| traffic.quota(spec, r))
                })
                .max();
            assert_eq!(Some(row.queue_depth_peak), peak);
            assert_eq!(row.confidence.iter().sum::<u64>(), row.processed);
            bypassed += row.bypassed;
        }
        assert!(
            bypassed > 0,
            "MPPPB bypassed nothing: the bypass sum is untested"
        );
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
