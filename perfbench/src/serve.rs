//! `serve_fleet`: the sharded serving fleet, driven round after round by
//! `Fleet::run_round` and timed by the benchmark's own wall clock.

use std::time::Instant;

use mrp_core::EngineStats;
use mrp_serve::{Fleet, FleetConfig};

use crate::drive::{member_check, member_seed, EngineDrive, Lineup, THREADS};
use crate::report::{mean, per_layer, quantile, Fanouts, Metrics, SimCounts, TracedRun};
use crate::spans::{Clock, Step};
use crate::{setup_due, Checks, Outcome};

/// Tenants; their combined engine state (16 LLCs and predictors) is far
/// larger than the host's own caches.
const TENANTS: usize = 16;
/// Traffic seed of the tenant population. `FleetConfig` derives each
/// tenant's application from its seed, and the population decides most
/// of every serving metric (a whale tenant on `spmv.fit` or on
/// `chase.16m` is a different workload), so it is fixed; the run seed
/// picks which rounds of the population's traffic are measured.
const POPULATION_SEED: u64 = 1;
/// Rounds run in set-up, before anything is counted or timed (LLCs start
/// empty). After set-up, the run seed adds up to one burst phase's worth
/// more, which picks where in the burst schedule measurement starts.
const WARM_ROUNDS: u64 = 16;
const BURST_PHASE_ROUNDS: u64 = 16;
/// Measured rounds whose per-tenant state is checked against the
/// engine-by-engine drive and gives the LLC hit rate and MPKI.
const CHECK_ROUNDS: u64 = 64;
/// Rounds measured per requested second. Round cost swings with the burst
/// schedule, so a run measures a fixed number of rounds rather than
/// "until the time is up": a slower host then measures the same rounds,
/// not fewer of them with a different mix of bursts. 56 rounds take
/// about a second on the reference host.
const ROUNDS_PER_SECOND: u64 = 56;
/// Windows of the member check on tenant 0's workload, whose full
/// simulation and LRU replay give the IPC and the MPPPB speed-up.
const CHECK_WARMUP: u64 = 200_000;
const CHECK_MEASURE: u64 = 400_000;

fn config() -> FleetConfig {
    FleetConfig::new(TENANTS, THREADS, POPULATION_SEED)
}

/// Per tenant: (LLC demand hits, LLC demand misses, accesses processed)
/// from `after` minus `before`.
fn delta(after: &[EngineStats], before: &[EngineStats]) -> Vec<(u64, u64, u64)> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| {
            (
                a.llc.demand_hits - b.llc.demand_hits,
                a.llc.demand_misses - b.llc.demand_misses,
                a.processed - b.processed,
            )
        })
        .collect()
}

/// The engine-by-engine drive of MPPPB, run through the first `warm`
/// rounds, with its instruction counts restarted after them.
fn warmed_drive(config: &FleetConfig, warm: u64, clock: &Clock) -> EngineDrive {
    let mut drive = EngineDrive::new(config, Lineup::MPPPB, clock);
    for round in 0..warm {
        drive.round(round, clock);
    }
    drive.reset_instructions();
    drive.skews.clear();
    drive
}

/// Drops `fleet` (if any) and builds it afresh: the timed set-up, then
/// the seed's `offset` rounds into the burst schedule, run after the
/// timer so every seed times the same set-up work.
fn resetup(fleet: &mut Option<Fleet>, offset: u64, setups: &mut Vec<f64>) {
    drop(fleet.take());
    let start = Instant::now();
    let mut built = Fleet::new(config());
    built.run_rounds(WARM_ROUNDS);
    setups.push(start.elapsed().as_secs_f64());
    built.run_rounds(offset);
    *fleet = Some(built);
}

pub fn run(seed: u64, seconds: u64, clock: &Clock) -> Outcome {
    let config = config();
    let offset = seed % BURST_PHASE_ROUNDS;
    let warm = WARM_ROUNDS + offset;
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut slot = None;
    resetup(&mut slot, offset, &mut setups);
    let base = slot.as_ref().expect("set up").tenant_snapshots();
    // Traced runs redo every fleet round engine by engine from benchmark
    // code, once traced and once untraced, so the tracing overhead is the
    // ratio of two rates of the same work.
    let untraced = Clock::new(false);
    let mut drives = clock.enabled.then(|| {
        (
            warmed_drive(&config, warm, clock),
            warmed_drive(&config, warm, &untraced),
        )
    });

    // A traced round does three rounds' work; a third as many keep the
    // traced run about as long as the untraced one.
    let per_second = if clock.enabled {
        ROUNDS_PER_SECOND / 3
    } else {
        ROUNDS_PER_SECOND
    };
    let rounds = (per_second * seconds).max(CHECK_ROUNDS);
    let mut step_ms = Vec::new();
    // Per round: M accesses served per second of the benchmark's wall
    // clock; `serve_maps` is their median.
    let mut rates = Vec::new();
    let (mut traced_wall_ns, mut untraced_wall_ns) = (0u64, 0u64);
    let mut checked = None;
    let mut steps: Vec<Step> = Vec::new();
    let mut fanouts = Fanouts::default();
    let mut rss = None;
    let mut measured = 0u64;
    while measured < rounds {
        // Set-up repeats wait until the checked rounds are done; each
        // rebuilt fleet measures its rounds from `warm` again.
        let progress = measured as f64 / rounds as f64;
        if !clock.enabled && checked.is_some() && setup_due(setups.len(), progress) {
            rss.get_or_insert_with(crate::host::peak_rss_mb);
            resetup(&mut slot, offset, &mut setups);
        }
        let fleet = slot.as_mut().expect("set up");
        let round = warm + measured;
        let t = Instant::now();
        let served = fleet.run_round();
        let ns = t.elapsed().as_nanos() as u64;
        rates.push(served as f64 * 1e3 / ns as f64);
        step_ms.push(ns as f64 / 1e6);
        if let Some((traced, plain)) = drives.as_mut() {
            let (round_steps, wall) = traced.round(round, clock);
            traced_wall_ns += wall;
            fanouts.add(wall, &round_steps);
            steps.extend(round_steps);
            untraced_wall_ns += plain.round(round, &untraced).1;
        }
        measured += 1;
        if measured == CHECK_ROUNDS {
            checked = Some(fleet.tenant_snapshots());
        }
    }
    let peak_rss_mb = *rss.get_or_insert_with(crate::host::peak_rss_mb);
    while !clock.enabled && setup_due(setups.len(), 1.0) {
        resetup(&mut slot, offset, &mut setups);
    }
    let checked = checked.expect("the loop runs the checked rounds");

    // Output checks: the fleet's per-tenant state equals the
    // engine-by-engine drive's, and tenant 0's workload simulates to the
    // same bits as its replay.
    let mut counts = SimCounts::default();
    let tenant0 = config.traffic.tenant_specs()[0].workload();
    let (full, lru) = member_check(
        &tenant0,
        member_seed(seed, 0),
        CHECK_WARMUP,
        CHECK_MEASURE,
        None,
        clock,
        &mut checks,
        &mut counts,
        &mut steps,
    );

    let mut metrics = Metrics::default();
    if let Some((traced, plain)) = drives {
        let now = slot.expect("set up").tenant_snapshots();
        checks.check(
            now == traced.snapshots() && now == plain.snapshots(),
            "fleet tenants differ from the engine-by-engine drives".to_string(),
        );
        let instructions: u64 = traced.instructions().iter().sum();
        metrics = per_layer(&TracedRun {
            steps: &steps,
            measured: &["serve.shard_round"],
            setup: &[],
            counts,
            skews: &traced.skews,
            fanouts,
            untraced_mips: instructions as f64 * 1e3 / untraced_wall_ns as f64,
            traced_mips: instructions as f64 * 1e3 / traced_wall_ns as f64,
        });
    } else {
        let mut drive = warmed_drive(&config, warm, &untraced);
        for round in warm..warm + CHECK_ROUNDS {
            drive.round(round, &untraced);
        }
        checks.check(
            checked == drive.snapshots(),
            "fleet tenants differ from the engine-by-engine drive".to_string(),
        );
        let instructions = drive.instructions();
        let delta = delta(&checked, &base);
        let (hits, misses, served) = delta
            .iter()
            .fold((0, 0, 0), |(h, m, a), d| (h + d.0, m + d.1, a + d.2));
        let lru = lru.expect("the member check replays tenant 0 under LRU");
        let maps = quantile(&rates, 0.5);
        metrics.put(
            "sim_mips",
            maps * instructions.iter().sum::<u64>() as f64 / served as f64,
            "M/s",
        );
        metrics.put("step_ms_p50", quantile(&step_ms, 0.5), "ms");
        metrics.put("step_ms_p90", quantile(&step_ms, 0.9), "ms");
        metrics.put("serve_maps", maps, "M/s");
        metrics.put("setup_s", quantile(&setups, 0.5), "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MB");
        metrics.put("ipc_geomean", full.ipc, "ipc");
        metrics.put(
            "mpki_mean",
            mean(
                &delta
                    .iter()
                    .zip(&instructions)
                    .map(|(d, &i)| d.1 as f64 * 1000.0 / i as f64)
                    .collect::<Vec<_>>(),
            ),
            "mpki",
        );
        metrics.put("mpppb_speedup_geomean", full.ipc / lru.ipc, "ratio");
        metrics.put(
            "llc_hit_rate",
            hits as f64 / (hits + misses) as f64,
            "ratio",
        );
    }
    Outcome {
        metrics,
        attempted: step_ms.len() as u64 + checks.attempted,
        failed: checks.failed,
        steps,
        samples: step_ms.len(),
    }
}
