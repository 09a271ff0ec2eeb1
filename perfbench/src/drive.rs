//! Drives shared by the workloads: the traced single-core drive, the
//! record/replay check, and the engine-by-engine fleet drive.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mrp_baselines::PolicyKind;
use mrp_cache::hierarchy::HierarchyAccess;
use mrp_cache::{
    Cache, CacheConfig, CacheStats, Hierarchy, HierarchyConfig, LlcRecording, ReplacementPolicy,
    HIERARCHY_BATCH,
};
use mrp_core::predictor::PredictorStats;
use mrp_core::{EngineConfig, EngineStats, Mpppb, MpppbConfig, PredictionEngine};
use mrp_cpu::core_model::{CoreModel, CoreModelConfig};
use mrp_cpu::{replay_single, SingleCoreResult, SingleCoreSim};
use mrp_serve::{Fleet, FleetConfig, TenantTraffic};
use mrp_trace::workloads::{self, Trace, Workload};
use mrp_trace::MemoryAccess;

use crate::probe::{Inner, Probe, ProbeState};
use crate::report::SimCounts;
use crate::spans::{Clock, Layer, Step};
use crate::Checks;

/// Worker threads for every fan-out: both cores of the 2-vCPU reference
/// host, and no more (see NOTES.md for the single-thread spread).
pub const THREADS: usize = 2;

/// The suite workload named `name`.
pub fn workload(name: &str) -> Workload {
    workloads::suite()
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("no suite workload named {name}"))
}

/// The trace seed of member `index` under the run seed.
pub fn member_seed(seed: u64, index: usize) -> u64 {
    let mut x = seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// MPPPB exactly as `PolicyKind::MpppbSingle` builds it, but concrete.
pub fn mpppb(llc: &CacheConfig) -> Mpppb {
    let scale = (llc.size_bytes() / (2 * 1024 * 1024)).max(1) as u32;
    let mut config = MpppbConfig::single_thread(llc);
    config.sampler_sets = (64 * scale).min(llc.sets());
    Mpppb::new(config, llc)
}

/// One of the 13 registered LLC policies: every `PolicyKind` plus
/// Hawkeye, which the registry builds separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lineup {
    Kind(PolicyKind),
    Hawkeye,
}

impl Lineup {
    pub const ALL: [Lineup; 13] = [
        Lineup::Kind(PolicyKind::Lru),
        Lineup::Kind(PolicyKind::Random),
        Lineup::Kind(PolicyKind::TreePlru),
        Lineup::Kind(PolicyKind::Srrip),
        Lineup::Kind(PolicyKind::Drrip),
        Lineup::Kind(PolicyKind::Mdpp),
        Lineup::Kind(PolicyKind::Ship),
        Lineup::Kind(PolicyKind::Sdbp),
        Lineup::Kind(PolicyKind::Perceptron),
        Lineup::Kind(PolicyKind::MpppbSingle),
        Lineup::Kind(PolicyKind::MpppbMulti),
        Lineup::Kind(PolicyKind::MpppbAdaptive),
        Lineup::Hawkeye,
    ];
    pub const LRU: Lineup = Lineup::Kind(PolicyKind::Lru);
    pub const MPPPB: Lineup = Lineup::Kind(PolicyKind::MpppbSingle);

    /// The step kind of a replay under this policy; the per-layer
    /// metrics single out LRU and MPPPB replays.
    pub fn step_kind(self) -> &'static str {
        match self {
            Lineup::LRU => "replay.lru",
            Lineup::MPPPB => "replay.mpppb",
            _ => "replay.other",
        }
    }

    /// The policy, unprobed — the library's own construction path.
    pub fn build(self, llc: &CacheConfig) -> Box<dyn ReplacementPolicy + Send> {
        match self {
            Lineup::Kind(kind) => kind.build(llc),
            Lineup::Hawkeye => PolicyKind::hawkeye(llc),
        }
    }

    /// The policy inside a probe; MPPPB is held concretely so its
    /// predictor counters are readable.
    pub fn probed(self, llc: &CacheConfig, state: Arc<ProbeState>) -> Probe {
        let inner = if self == Lineup::MPPPB {
            Inner::Mpppb(Box::new(mpppb(llc)))
        } else {
            Inner::Other(self.build(llc))
        };
        Probe::new(inner, state)
    }
}

/// Whether two results are the same bits: IPC, MPKI, instructions,
/// cycles and every hierarchy counter.
pub fn same_result(a: &SingleCoreResult, b: &SingleCoreResult) -> bool {
    a.ipc.to_bits() == b.ipc.to_bits()
        && a.mpki.to_bits() == b.mpki.to_bits()
        && a.instructions == b.instructions
        && a.cycles == b.cycles
        && a.stats == b.stats
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

/// Predictor counter growth from `before` to `after`.
pub fn predictor_delta(after: &PredictorStats, before: &PredictorStats) -> PredictorStats {
    PredictorStats {
        predictions: after.predictions - before.predictions,
        sampler_accesses: after.sampler_accesses - before.sampler_accesses,
        sampler_hits: after.sampler_hits - before.sampler_hits,
        weight_updates: after.weight_updates - before.weight_updates,
    }
}

/// The untraced single-core simulation of member `w` under MPPPB, as the
/// library builds it.
pub fn library_sim(w: &Workload, seed: u64) -> SingleCoreSim<Trace> {
    let config = HierarchyConfig::single_thread();
    SingleCoreSim::new(config, Lineup::MPPPB.build(&config.llc), w.trace(seed))
}

/// `SingleCoreSim::run`, rewritten in benchmark code so each layer call
/// can be timed: trace pulls, `Hierarchy::access_batch` (with the MPPPB
/// window hook reached through the probe), and the retire loop. It must
/// stay bit-identical to the library's run; the checks compare them.
pub struct TracedSim {
    hierarchy: Hierarchy,
    core: CoreModel,
    trace: Trace,
    pub probe: Arc<ProbeState>,
    group: Vec<MemoryAccess>,
    outcomes: Vec<HierarchyAccess>,
}

/// One measure window of a [`TracedSim`].
pub struct TracedWindow {
    pub result: SingleCoreResult,
    pub predictor: PredictorStats,
    pub accesses: u64,
}

impl TracedSim {
    pub fn new(w: &Workload, seed: u64, step: &mut Step) -> Self {
        let config = HierarchyConfig::single_thread();
        let probe = ProbeState::new(true);
        let llc = step.time(Layer::PolicyBuild, || {
            Cache::new(
                config.llc,
                Box::new(Lineup::MPPPB.probed(&config.llc, probe.clone())),
            )
        });
        TracedSim {
            hierarchy: Hierarchy::with_llc(config, llc),
            core: CoreModel::new(CoreModelConfig::default()),
            trace: w.trace(seed),
            probe,
            group: Vec::with_capacity(HIERARCHY_BATCH),
            outcomes: Vec::with_capacity(HIERARCHY_BATCH),
        }
    }

    /// `SingleCoreSim::run(warmup, measure)`, traced.
    pub fn run(&mut self, warmup: u64, measure: u64, step: &mut Step) -> TracedWindow {
        let llc_ops_before = llc_ops(&self.hierarchy.stats().llc);
        self.advance(warmup, step);
        self.core.reset_counters();
        let before = self.hierarchy.stats();
        let predictor_before = self.probe.predictor();
        let accesses = self.advance(measure, step);
        let mut stats = self.hierarchy.stats();
        stats.l1d = diff(&stats.l1d, &before.l1d);
        stats.l2 = diff(&stats.l2, &before.l2);
        stats.llc = diff(&stats.llc, &before.llc);
        stats.instructions -= before.instructions;
        stats.prefetches_issued -= before.prefetches_issued;
        step.count(
            Layer::Window,
            llc_ops(&self.hierarchy.stats().llc) - llc_ops_before,
        );
        TracedWindow {
            result: SingleCoreResult {
                ipc: self.core.ipc(),
                mpki: stats.llc_mpki(),
                instructions: self.core.instructions(),
                cycles: self.core.drained_cycles(),
                stats,
            },
            predictor: predictor_delta(&self.probe.predictor(), &predictor_before),
            accesses,
        }
    }

    /// Retires at least `instructions`, in the library's 64-access groups
    /// and with its exact stopping rule; returns the accesses simulated.
    fn advance(&mut self, instructions: u64, step: &mut Step) -> u64 {
        let mut retired = 0u64;
        let mut accesses = 0u64;
        while retired < instructions {
            let (group, trace) = (&mut self.group, &mut self.trace);
            step.time(Layer::TraceFill, || {
                group.clear();
                while group.len() < HIERARCHY_BATCH && retired < instructions {
                    let access = trace.next().expect("traces are infinite");
                    retired += access.instructions();
                    group.push(access);
                }
            });
            let window_before = self.probe.window_ns();
            let (hierarchy, outcomes) = (&mut self.hierarchy, &mut self.outcomes);
            step.time(Layer::Hierarchy, || hierarchy.access_batch(group, outcomes));
            step.add_window(Layer::Hierarchy, self.probe.window_ns() - window_before);
            let core = &mut self.core;
            step.time(Layer::Retire, || {
                for (access, outcome) in group.iter().zip(outcomes.iter()) {
                    core.retire_access(
                        access.instructions() as u32,
                        outcome.latency,
                        access.dependent,
                    );
                }
            });
            let n = group.len() as u64;
            for layer in [Layer::TraceFill, Layer::Hierarchy, Layer::Retire] {
                step.count(layer, n);
            }
            accesses += n;
        }
        accesses
    }
}

/// LLC operations: demand accesses plus prefetch fills and prefetch hits.
pub fn llc_ops(llc: &CacheStats) -> u64 {
    llc.demand_accesses() + llc.prefetch_fills + llc.prefetch_hits
}

/// Records member `w`'s LLC stream over `warmup` + `measure`
/// instructions. Traced, the trace is generated up front through
/// `Trace::fill` so generation and the private levels are timed apart.
pub fn record(w: &Workload, seed: u64, warmup: u64, measure: u64, step: &mut Step) -> LlcRecording {
    let config = HierarchyConfig::single_thread();
    let mut trace = w.trace(seed);
    if !step.clock_enabled() {
        return LlcRecording::record(w.name(), trace, &config, warmup, measure);
    }
    // Pull one chunk past the target: each of the recording's two windows
    // overshoots by less than one access, and the chained trace supplies
    // any shortfall.
    let mut buffer = Vec::new();
    let mut instructions = 0u64;
    while instructions < warmup + measure {
        let start = buffer.len();
        step.time(Layer::TraceFill, || trace.fill(4096, &mut buffer));
        step.count(Layer::TraceFill, 4096);
        instructions += buffer[start..]
            .iter()
            .map(MemoryAccess::instructions)
            .sum::<u64>();
    }
    step.time(Layer::TraceFill, || trace.fill(64, &mut buffer));
    step.count(Layer::TraceFill, 64);
    step.time(Layer::Record, || {
        LlcRecording::record(
            w.name(),
            buffer.into_iter().chain(trace),
            &config,
            warmup,
            measure,
        )
    })
}

/// Replays `recording` under `policy` on a cold LLC. Traced, the policy
/// sits in a probe that times its window hook.
pub fn replay(recording: &LlcRecording, policy: Lineup, step: &mut Step) -> SingleCoreResult {
    let config = HierarchyConfig::single_thread();
    step.units = recording.llc_len() as u64;
    if !step.clock_enabled() {
        let mut cache = Cache::new(config.llc, policy.build(&config.llc));
        return replay_single(recording, &mut cache, &config.latencies);
    }
    let probe = ProbeState::new(true);
    let mut cache = step.time(Layer::PolicyBuild, || {
        Cache::new(
            config.llc,
            Box::new(policy.probed(&config.llc, probe.clone())),
        )
    });
    let result = step.time(Layer::Replay, || {
        replay_single(recording, &mut cache, &config.latencies)
    });
    step.count(Layer::Replay, recording.len() as u64);
    if probe.window_ns() > 0 {
        step.add_window(Layer::Replay, probe.window_ns());
        step.count(Layer::Window, recording.llc_len() as u64);
    }
    result
}

/// What [`replay_check`] found.
pub struct ReplayCheck {
    pub matched: bool,
    pub lru: SingleCoreResult,
    pub steps: Vec<Step>,
}

/// The replay half of a member check: records the member, replays it
/// under MPPPB (must equal `full`, the full simulation of the same
/// windows) and under LRU.
pub fn replay_check(
    w: &Workload,
    seed: u64,
    warmup: u64,
    measure: u64,
    full: &SingleCoreResult,
    clock: &Clock,
) -> ReplayCheck {
    let mut record_step = clock.step("check.record", w.name());
    let recording = record(w, seed, warmup, measure, &mut record_step);
    let mut mpppb_step = clock.step(Lineup::MPPPB.step_kind(), w.name());
    let replayed = replay(&recording, Lineup::MPPPB, &mut mpppb_step);
    let mut lru_step = clock.step(Lineup::LRU.step_kind(), w.name());
    let lru = replay(&recording, Lineup::LRU, &mut lru_step);
    ReplayCheck {
        matched: same_result(&replayed, full),
        lru,
        steps: vec![record_step.finish(), mpppb_step.finish(), lru_step.finish()],
    }
}

/// The full simulation of one member: `SingleCoreSim::run` through the
/// library and, traced, the benchmark's own drive of the same windows,
/// which the caller checks against it.
pub fn full_sim(
    w: &Workload,
    seed: u64,
    warmup: u64,
    measure: u64,
    clock: &Clock,
) -> (SingleCoreResult, Option<TracedWindow>, Vec<Step>) {
    let full = library_sim(w, seed).run(warmup, measure);
    if !clock.enabled {
        return (full, None, Vec::new());
    }
    let mut step = clock.step("check.traced_sim", w.name());
    let mut sim = TracedSim::new(w, seed, &mut step);
    let traced = sim.run(warmup, measure, &mut step);
    (full, Some(traced), vec![step.finish()])
}

/// Runs `jobs` through the pool on [`THREADS`] workers; returns the
/// results and the fan-out's wall time in nanoseconds.
pub fn fanout<T: Send>(jobs: usize, f: impl Fn(usize) -> T + Sync) -> (Vec<T>, u64) {
    let start = Instant::now();
    let out = mrp_runtime::map_indexed_with(jobs, THREADS, f);
    (out, start.elapsed().as_nanos() as u64)
}

/// One tenant of the engine-by-engine drive.
struct Tenant {
    id: usize,
    traffic: TenantTraffic,
    engine: PredictionEngine,
    probe: Arc<ProbeState>,
    /// Instructions of the traffic submitted since the last
    /// [`EngineDrive::reset_instructions`].
    instructions: u64,
}

/// The fleet's work redone engine by engine, from benchmark code:
/// per-tenant `PredictionEngine`s grouped into the fleet's shards
/// (`tenant % shards`), each round filled with `TenantTraffic::fill` and
/// delivered in `HIERARCHY_BATCH`-access `submit_batch` calls. Its
/// per-tenant `EngineStats` must equal the fleet's.
pub struct EngineDrive {
    config: FleetConfig,
    shards: Vec<Mutex<Vec<Tenant>>>,
    /// Per round, max ÷ mean of the shards' accesses.
    pub skews: Vec<f64>,
}

/// One shard's share of a drive round.
struct ShardRound {
    step: Step,
    accesses: u64,
}

impl EngineDrive {
    pub fn new(config: &FleetConfig, policy: Lineup, clock: &Clock) -> Self {
        let shards: Vec<Mutex<Vec<Tenant>>> =
            (0..config.shards).map(|_| Mutex::new(Vec::new())).collect();
        for spec in config.traffic.tenant_specs() {
            let probe = ProbeState::new(clock.enabled);
            let engine = EngineConfig::new(config.llc)
                .policy(Box::new(policy.probed(&config.llc, probe.clone())))
                .options(config.options)
                .label(format!("tenant-{}", spec.tenant))
                .track_confidence(config.track_confidence)
                .build();
            shards[spec.tenant % config.shards]
                .lock()
                .expect("shard poisoned")
                .push(Tenant {
                    id: spec.tenant,
                    traffic: TenantTraffic::open(spec),
                    engine,
                    probe,
                    instructions: 0,
                });
        }
        EngineDrive {
            config: *config,
            shards,
            skews: Vec::new(),
        }
    }

    /// Runs round `round` on every shard in parallel; returns one step
    /// per shard and the fan-out wall time.
    pub fn round(&mut self, round: u64, clock: &Clock) -> (Vec<Step>, u64) {
        let traffic = self.config.traffic;
        let (shards, wall) = fanout(self.shards.len(), |s| {
            let mut tenants = self.shards[s].lock().expect("shard poisoned");
            let mut step = clock.step("serve.shard_round", &format!("shard-{s}"));
            let mut queue = Vec::new();
            let mut accesses = 0u64;
            for tenant in tenants.iter_mut() {
                queue.clear();
                step.time(Layer::ServeFill, || {
                    tenant.traffic.fill(&traffic, round, &mut queue)
                });
                step.count(Layer::ServeFill, queue.len() as u64);
                for batch in queue.chunks(HIERARCHY_BATCH) {
                    let window_before = tenant.probe.window_ns();
                    step.time(Layer::Submit, || tenant.engine.submit_batch(batch));
                    step.count(Layer::Submit, batch.len() as u64);
                    let window_ns = tenant.probe.window_ns() - window_before;
                    if window_ns > 0 {
                        step.add_window(Layer::Submit, window_ns);
                        step.count(Layer::Window, batch.len() as u64);
                    }
                }
                tenant.instructions += queue.iter().map(MemoryAccess::instructions).sum::<u64>();
                accesses += queue.len() as u64;
            }
            ShardRound {
                step: step.finish(),
                accesses,
            }
        });
        let max = shards.iter().map(|s| s.accesses).max().unwrap_or(0) as f64;
        let mean = shards.iter().map(|s| s.accesses).sum::<u64>() as f64 / shards.len() as f64;
        if mean > 0.0 {
            self.skews.push(max / mean);
        }
        (shards.into_iter().map(|s| s.step).collect(), wall)
    }

    fn tenants<T>(&self, f: impl Fn(&Tenant) -> T) -> Vec<T> {
        let mut out: Vec<(usize, T)> = Vec::new();
        for shard in &self.shards {
            for tenant in shard.lock().expect("shard poisoned").iter() {
                out.push((tenant.id, f(tenant)));
            }
        }
        out.sort_by_key(|(id, _)| *id);
        out.into_iter().map(|(_, v)| v).collect()
    }

    /// Every tenant's engine snapshot, tenant order (as
    /// `Fleet::tenant_snapshots`).
    pub fn snapshots(&self) -> Vec<EngineStats> {
        self.tenants(|t| t.engine.snapshot())
    }

    /// Per tenant, tenant order: instructions submitted since the last
    /// [`EngineDrive::reset_instructions`].
    pub fn instructions(&self) -> Vec<u64> {
        self.tenants(|t| t.instructions)
    }

    /// Restarts the per-tenant instruction counts (the warmup/measure
    /// boundary).
    pub fn reset_instructions(&mut self) {
        for shard in &self.shards {
            for tenant in shard.lock().expect("shard poisoned").iter_mut() {
                tenant.instructions = 0;
            }
        }
    }
}

/// A small fleet checked against the engine-by-engine drive. Workloads
/// whose own path has no serving layer run it so every run checks every
/// layer's output and the traced run measures every layer.
pub fn mini_fleet_check(seed: u64, clock: &Clock) -> (bool, Vec<Step>, Vec<f64>) {
    const ROUNDS: u64 = 6;
    let mut config = FleetConfig::new(4, THREADS, seed);
    config.traffic.round_quota = 8 * 1024;
    let mut fleet = Fleet::new(config);
    fleet.run_rounds(ROUNDS);
    let mut drive = EngineDrive::new(&config, Lineup::MPPPB, clock);
    let mut steps = Vec::new();
    for round in 0..ROUNDS {
        steps.extend(drive.round(round, clock).0);
    }
    let ok = fleet.tenant_snapshots() == drive.snapshots();
    (ok, steps, drive.skews)
}

/// The member check of workloads whose own path is not a full
/// simulation: `SingleCoreSim::run` of one member, checked against the
/// traced drive (traced runs) and against its MPPPB replay — `replayed`
/// when the workload already replayed those windows, else a fresh
/// record and replay. Returns the full simulation's result and, when it
/// replayed afresh, the LRU replay of the same windows.
#[allow(clippy::too_many_arguments)]
pub fn member_check(
    w: &Workload,
    seed: u64,
    warmup: u64,
    measure: u64,
    replayed: Option<&SingleCoreResult>,
    clock: &Clock,
    checks: &mut Checks,
    counts: &mut SimCounts,
    steps: &mut Vec<Step>,
) -> (SingleCoreResult, Option<SingleCoreResult>) {
    let (full, traced, sim_steps) = full_sim(w, seed, warmup, measure, clock);
    steps.extend(sim_steps);
    if let Some(traced) = traced {
        checks.check(
            same_result(&traced.result, &full),
            format!("{}: traced drive differs from SingleCoreSim::run", w.name()),
        );
        counts.add(&traced);
    }
    let (matched, lru) = match replayed {
        Some(replayed) => (same_result(replayed, &full), None),
        None => {
            let check = replay_check(w, seed, warmup, measure, &full, clock);
            steps.extend(check.steps);
            (check.matched, Some(check.lru))
        }
    };
    checks.check(
        matched,
        format!("{}: MPPPB replay differs from full simulation", w.name()),
    );
    (full, lru)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every count metric comes from program-exposed counters; with the
    /// same seed they must repeat exactly, run to run.
    #[test]
    fn counters_repeat_exactly_for_a_seed() {
        let clock = Clock::new(true);
        let counts = || {
            let mut counts = SimCounts::default();
            for name in ["scanhot.protect", "zipf.hot"] {
                let mut step = clock.step("test", name);
                let mut sim = TracedSim::new(&workload(name), 7, &mut step);
                counts.add(&sim.run(50_000, 100_000, &mut step));
            }
            counts
        };
        let first = counts();
        assert!(first.predictor.predictions > 0 && first.llc.demand_accesses() > 0);
        assert_eq!(first, counts());

        let mut config = FleetConfig::new(3, THREADS, 7);
        config.traffic.round_quota = 2048;
        let snapshots = || {
            let mut drive = EngineDrive::new(&config, Lineup::MPPPB, &clock);
            for round in 0..3 {
                drive.round(round, &clock);
            }
            (drive.snapshots(), drive.instructions())
        };
        assert_eq!(snapshots(), snapshots());
    }
}
