//! `replay_sweep`: each member recorded once, then replayed under all 13
//! registered policies on cold LLCs — the Fig. 6/7 driver path.

use std::time::{Duration, Instant};

use mrp_cache::LlcRecording;
use mrp_cpu::SingleCoreResult;
use mrp_trace::workloads::Workload;

use crate::drive::{
    fanout, member_check, member_seed, mini_fleet_check, record, replay, workload, Lineup,
};
use crate::report::{geomean, mean, per_layer, quantile, Fanouts, Metrics, SimCounts, TracedRun};
use crate::spans::{Clock, Step};
use crate::{setup_due, Checks, Outcome};

/// Members spanning the suite's regimes: an LRU-pathological loop, a
/// scan over a hot set (where bypass pays), a Zipf key-value server, a
/// B-tree probe and a phase-changing mix.
const MEMBERS: [&str; 5] = [
    "loop.edge",
    "scanhot.protect",
    "kv.server",
    "btree.probe",
    "phase.hetero",
];
const WARMUP: u64 = 500_000;
const MEASURE: u64 = 1_000_000;

/// One pass: every (member, policy) job once. Returns each job's result
/// and step, and the fan-out wall time.
fn pass(recordings: &[LlcRecording], clock: &Clock) -> (Vec<(SingleCoreResult, Step)>, u64) {
    let policies = Lineup::ALL.len();
    fanout(recordings.len() * policies, |job| {
        let recording = &recordings[job / policies];
        let policy = Lineup::ALL[job % policies];
        let label = format!("{}/{:?}", recording.name(), policy);
        let mut step = clock.step(policy.step_kind(), &label);
        let result = replay(recording, policy, &mut step);
        (result, step.finish())
    })
}

/// Records every member, on the main thread as in `sim`: one heap arena
/// for every repeat. Returns the recordings, their steps and the seconds
/// taken.
fn setup(members: &[(Workload, u64)], clock: &Clock) -> (Vec<LlcRecording>, Vec<Step>, f64) {
    let start = Instant::now();
    let (recordings, steps): (Vec<_>, Vec<_>) = members
        .iter()
        .map(|(w, member_seed)| {
            let mut step = clock.step("setup.record", w.name());
            let r = record(w, *member_seed, WARMUP, MEASURE, &mut step);
            (r, step.finish())
        })
        .unzip();
    (recordings, steps, start.elapsed().as_secs_f64())
}

pub fn run(seed: u64, seconds: u64, clock: &Clock) -> Outcome {
    let members: Vec<(Workload, u64)> = MEMBERS
        .iter()
        .enumerate()
        .map(|(i, name)| (workload(name), member_seed(seed, i)))
        .collect();
    let mut checks = Checks::default();
    let (mut recordings, mut steps, secs) = setup(&members, clock);
    let mut setups = vec![secs];
    let untraced = Clock::new(false);
    // A repeat rebuilds recordings equal to the ones it replaces.
    let resetup = |recordings: &mut Vec<LlcRecording>, setups: &mut Vec<f64>| {
        drop(std::mem::take(recordings));
        let (recorded, _, secs) = setup(&members, &untraced);
        *recordings = recorded;
        setups.push(secs);
    };

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut first: Vec<SingleCoreResult> = Vec::new();
    let mut step_ms = Vec::new();
    // Per untraced pass: (M instructions/s, M events/s); medians are
    // reported, as in `sim`.
    let mut rates: Vec<(f64, f64)> = Vec::new();
    let (mut instructions, mut wall_ns) = (0u64, 0u64);
    let (mut traced_instructions, mut traced_wall_ns) = (0u64, 0u64);
    let mut fanouts = Fanouts::default();
    let mut rss = None;
    let mut round = 0u64;
    let recorded_instructions: u64 = recordings.iter().map(LlcRecording::instructions).sum();
    let recorded_events: u64 = recordings.iter().map(|r| r.len() as u64).sum();
    let policies = Lineup::ALL.len() as u64;
    while first.is_empty() || (clock.enabled && traced_wall_ns == 0) || start.elapsed() < budget {
        let traced = clock.enabled && round % 2 == 1;
        let progress = start.elapsed().as_secs_f64() / budget.as_secs_f64();
        if !clock.enabled && setup_due(setups.len(), progress) {
            rss.get_or_insert_with(crate::host::peak_rss_mb);
            resetup(&mut recordings, &mut setups);
        }
        let (jobs, wall) = pass(&recordings, if traced { clock } else { &untraced });
        if traced {
            traced_instructions += recorded_instructions * policies;
            traced_wall_ns += wall;
            let job_steps: Vec<Step> = jobs.into_iter().map(|(_, s)| s).collect();
            fanouts.add(wall, &job_steps);
            steps.extend(job_steps);
        } else {
            instructions += recorded_instructions * policies;
            wall_ns += wall;
            rates.push((
                (recorded_instructions * policies) as f64 * 1e3 / wall as f64,
                (recorded_events * policies) as f64 * 1e3 / wall as f64,
            ));
            step_ms.extend(jobs.iter().map(|(_, s)| s.wall_ns() as f64 / 1e6));
            if first.is_empty() {
                first = jobs.into_iter().map(|(r, _)| r).collect();
            }
        }
        round += 1;
    }
    let peak_rss_mb = *rss.get_or_insert_with(crate::host::peak_rss_mb);
    while !clock.enabled && setup_due(setups.len(), 1.0) {
        resetup(&mut recordings, &mut setups);
    }

    // Per member: (MPPPB result, LRU result) of the first pass.
    let per_policy = |i: usize, policy: Lineup| {
        let p = Lineup::ALL
            .iter()
            .position(|&l| l == policy)
            .expect("registered policy");
        first[i * Lineup::ALL.len() + p]
    };
    let mpppb: Vec<SingleCoreResult> = (0..members.len())
        .map(|i| per_policy(i, Lineup::MPPPB))
        .collect();
    let lru: Vec<SingleCoreResult> = (0..members.len())
        .map(|i| per_policy(i, Lineup::LRU))
        .collect();

    // Output checks: one member's full simulation equals its replay.
    let checked = (seed % members.len() as u64) as usize;
    let mut counts = SimCounts::default();
    let (w, member_seed) = &members[checked];
    member_check(
        w,
        *member_seed,
        WARMUP,
        MEASURE,
        Some(&mpppb[checked]),
        clock,
        &mut checks,
        &mut counts,
        &mut steps,
    );
    let (fleet_ok, fleet_steps, skews) = mini_fleet_check(seed, clock);
    checks.check(
        fleet_ok,
        "mini fleet differs from the engine drive".to_string(),
    );
    steps.extend(fleet_steps);

    let mut metrics = Metrics::default();
    if clock.enabled {
        metrics = per_layer(&TracedRun {
            steps: &steps,
            measured: &["replay.lru", "replay.mpppb", "replay.other"],
            setup: &["setup.record"],
            counts,
            skews: &skews,
            fanouts,
            untraced_mips: instructions as f64 * 1e3 / wall_ns as f64,
            traced_mips: traced_instructions as f64 * 1e3 / traced_wall_ns as f64,
        });
    } else {
        let speedups: Vec<f64> = mpppb.iter().zip(&lru).map(|(m, l)| m.ipc / l.ipc).collect();
        let (hits, demand) = mpppb.iter().fold((0, 0), |(h, d), r| {
            (
                h + r.stats.llc.demand_hits,
                d + r.stats.llc.demand_accesses(),
            )
        });
        let median =
            |f: fn(&(f64, f64)) -> f64| quantile(&rates.iter().map(f).collect::<Vec<_>>(), 0.5);
        metrics.put("sim_mips", median(|r| r.0), "M/s");
        metrics.put("step_ms_p50", quantile(&step_ms, 0.5), "ms");
        metrics.put("step_ms_p90", quantile(&step_ms, 0.9), "ms");
        metrics.put("serve_maps", median(|r| r.1), "M/s");
        metrics.put("setup_s", quantile(&setups, 0.5), "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MB");
        metrics.put(
            "ipc_geomean",
            geomean(&mpppb.iter().map(|r| r.ipc).collect::<Vec<_>>()),
            "ipc",
        );
        metrics.put(
            "mpki_mean",
            mean(&mpppb.iter().map(|r| r.mpki).collect::<Vec<_>>()),
            "mpki",
        );
        metrics.put("mpppb_speedup_geomean", geomean(&speedups), "ratio");
        metrics.put("llc_hit_rate", hits as f64 / demand as f64, "ratio");
    }
    Outcome {
        metrics,
        attempted: step_ms.len() as u64 + checks.attempted,
        failed: checks.failed,
        steps,
        samples: step_ms.len(),
    }
}
