//! `sim_llc` and `sim_core`: full single-core simulations under MPPPB,
//! one member per job, fanned out over both cores.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use mrp_cpu::{SingleCoreResult, SingleCoreSim};
use mrp_trace::workloads::{Trace, Workload};

use crate::drive::{
    fanout, library_sim, member_seed, mini_fleet_check, replay_check, same_result, workload,
    TracedSim,
};
use crate::report::{geomean, mean, per_layer, quantile, Fanouts, Metrics, SimCounts, TracedRun};
use crate::spans::{Clock, Step};
use crate::{setup_due, Checks, Outcome};

/// One member set and its simulated windows.
pub struct SimSpec {
    /// Members with their measure window in instructions. Windows are
    /// sized so one window takes about 100 ms of host time on the
    /// reference host: the step-time distribution is then one cluster,
    /// not one cluster per member with the median falling between two.
    pub members: &'static [(&'static str, u64)],
    /// Instructions simulated before anything is counted or timed.
    pub warmup: u64,
}

/// LLC-heavy members (95–333 LLC operations per kilo-instruction).
pub const SIM_LLC: SimSpec = SimSpec {
    members: &[
        ("loop.edge", 700_000),
        ("chase.16m", 1_350_000),
        ("scanhot.protect", 1_000_000),
        ("kv.uniform", 750_000),
        ("fields.big", 650_000),
    ],
    warmup: 1_000_000,
};

/// L1/L2-resident or generator-heavy members (at most 34 LLC operations
/// per kilo-instruction).
pub const SIM_CORE: SimSpec = SimSpec {
    members: &[
        ("walk.tight", 2_200_000),
        ("stack.deep", 4_200_000),
        ("mm.tiled", 3_000_000),
        ("merge.sort", 3_600_000),
        ("sat.clauses", 1_200_000),
        ("zipf.hot", 1_400_000),
    ],
    warmup: 1_000_000,
};

struct Member {
    workload: Workload,
    seed: u64,
    window: u64,
}

fn members(spec: &SimSpec, seed: u64) -> Vec<Member> {
    spec.members
        .iter()
        .enumerate()
        .map(|(i, &(name, window))| Member {
            workload: workload(name),
            seed: member_seed(seed, i),
            window,
        })
        .collect()
}

/// Builds every member's library simulation on the main thread, then
/// warms them fanned out like the measured rounds. Building allocates the
/// large tables; doing it on one thread keeps every repeat in the same
/// heap arena, so the peak RSS does not depend on which worker allocated.
/// Warming in parallel keeps set-up time as steady as the rounds: one
/// thread alone swings more with the host.
fn setup(spec: &SimSpec, members: &[Member]) -> (Vec<Mutex<SingleCoreSim<Trace>>>, f64) {
    let start = Instant::now();
    let sims: Vec<_> = members
        .iter()
        .map(|m| Mutex::new(library_sim(&m.workload, m.seed)))
        .collect();
    fanout(sims.len(), |i| {
        sims[i].lock().expect("sim poisoned").run(spec.warmup, 0);
    });
    (sims, start.elapsed().as_secs_f64())
}

/// One untraced round: every member advances one measure window.
fn library_round(
    members: &[Member],
    sims: &[Mutex<SingleCoreSim<Trace>>],
) -> (Vec<(SingleCoreResult, f64)>, u64) {
    fanout(sims.len(), |i| {
        let start = Instant::now();
        let r = sims[i]
            .lock()
            .expect("sim poisoned")
            .run(0, members[i].window);
        (r, start.elapsed().as_secs_f64() * 1e3)
    })
}

/// Drops the members' simulations and sets them up afresh, timed.
fn resetup(
    spec: &SimSpec,
    members: &[Member],
    sims: &mut Vec<Mutex<SingleCoreSim<Trace>>>,
    setups: &mut Vec<f64>,
) {
    drop(std::mem::take(sims));
    let (built, secs) = setup(spec, members);
    *sims = built;
    setups.push(secs);
}

pub fn run(spec: &SimSpec, seed: u64, seconds: u64, clock: &Clock) -> Outcome {
    let members = members(spec, seed);
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut sims = Vec::new();
    resetup(spec, &members, &mut sims, &mut setups);
    let mut steps: Vec<Step> = Vec::new();
    // Traced runs keep a second, traced copy of every member and
    // alternate rounds between the two, so host drift hits both alike.
    // The build steps are kept; the warmup is not measured.
    let traced: Vec<Mutex<TracedSim>> = if clock.enabled {
        let (built, _) = fanout(members.len(), |i| {
            let name = members[i].workload.name();
            let mut build = clock.step("setup.build", name);
            let mut sim = TracedSim::new(&members[i].workload, members[i].seed, &mut build);
            let build = build.finish();
            sim.run(spec.warmup, 0, &mut clock.step("setup.warm", name));
            (Mutex::new(sim), build)
        });
        let (sims, builds): (Vec<_>, Vec<_>) = built.into_iter().unzip();
        steps.extend(builds);
        sims
    } else {
        Vec::new()
    };

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut first: Vec<SingleCoreResult> = Vec::new();
    let mut first_traced: Vec<SingleCoreResult> = Vec::new();
    let mut step_ms = Vec::new();
    // Per untraced round: (M instructions/s, M accesses/s). The rates
    // reported are medians over rounds, so a burst of host interference
    // moves a few rounds, not the result.
    let mut rates: Vec<(f64, f64)> = Vec::new();
    let (mut instructions, mut wall_ns) = (0u64, 0u64);
    let (mut traced_instructions, mut traced_wall_ns) = (0u64, 0u64);
    // Counters of the first traced round only: how many rounds a run
    // makes depends on the host, and each round covers new windows.
    let mut counts = SimCounts::default();
    let mut fanouts = Fanouts::default();
    let mut rss = None;
    let mut round = 0u64;
    while first.is_empty() || (clock.enabled && first_traced.is_empty()) || start.elapsed() < budget
    {
        if clock.enabled && round % 2 == 1 {
            let (windows, wall) = fanout(traced.len(), |i| {
                let mut step = clock.step("sim.window", members[i].workload.name());
                let w =
                    traced[i]
                        .lock()
                        .expect("sim poisoned")
                        .run(0, members[i].window, &mut step);
                (w, step.finish())
            });
            let (windows, round_steps): (Vec<_>, Vec<_>) = windows.into_iter().unzip();
            fanouts.add(wall, &round_steps);
            steps.extend(round_steps);
            traced_wall_ns += wall;
            traced_instructions += windows.iter().map(|w| w.result.instructions).sum::<u64>();
            if first_traced.is_empty() {
                for w in &windows {
                    counts.add(w);
                }
                first_traced = windows.into_iter().map(|w| w.result).collect();
            }
        } else {
            let progress = start.elapsed().as_secs_f64() / budget.as_secs_f64();
            if !clock.enabled && setup_due(setups.len(), progress) {
                rss.get_or_insert_with(crate::host::peak_rss_mb);
                resetup(spec, &members, &mut sims, &mut setups);
            }
            let (results, wall) = library_round(&members, &sims);
            wall_ns += wall;
            let (mut round_instructions, mut round_accesses) = (0u64, 0u64);
            for (r, ms) in &results {
                round_instructions += r.instructions;
                round_accesses += r.stats.l1d.demand_accesses();
                step_ms.push(*ms);
            }
            instructions += round_instructions;
            rates.push((
                round_instructions as f64 * 1e3 / wall as f64,
                round_accesses as f64 * 1e3 / wall as f64,
            ));
            if first.is_empty() {
                first = results.into_iter().map(|(r, _)| r).collect();
            }
        }
        round += 1;
    }
    let peak_rss_mb = *rss.get_or_insert_with(crate::host::peak_rss_mb);
    while !clock.enabled && setup_due(setups.len(), 1.0) {
        resetup(spec, &members, &mut sims, &mut setups);
    }

    // Output checks: every member's first window against its replay, and
    // (traced) against the benchmark's own traced drive.
    let mut lru = Vec::new();
    for (i, m) in members.iter().enumerate() {
        let check = replay_check(&m.workload, m.seed, spec.warmup, m.window, &first[i], clock);
        checks.check(
            check.matched,
            format!(
                "{}: MPPPB replay differs from full simulation",
                m.workload.name()
            ),
        );
        lru.push(check.lru);
        steps.extend(check.steps);
        if clock.enabled {
            checks.check(
                same_result(&first_traced[i], &first[i]),
                format!(
                    "{}: traced drive differs from SingleCoreSim::run",
                    m.workload.name()
                ),
            );
        }
    }
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
            measured: &["sim.window"],
            setup: &["setup.build"],
            counts,
            skews: &skews,
            fanouts,
            untraced_mips: instructions as f64 * 1e3 / wall_ns as f64,
            traced_mips: traced_instructions as f64 * 1e3 / traced_wall_ns.max(1) as f64,
        });
    } else {
        let ipcs: Vec<f64> = first.iter().map(|r| r.ipc).collect();
        let speedups: Vec<f64> = first.iter().zip(&lru).map(|(m, l)| m.ipc / l.ipc).collect();
        let (hits, demand): (u64, u64) = first.iter().fold((0, 0), |(h, d), r| {
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
        metrics.put("ipc_geomean", geomean(&ipcs), "ipc");
        metrics.put(
            "mpki_mean",
            mean(&first.iter().map(|r| r.mpki).collect::<Vec<_>>()),
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

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: SimSpec = SimSpec {
        members: &[("scanhot.protect", 40_000), ("zipf.hot", 40_000)],
        warmup: 20_000,
    };

    /// Every count metric of the traced run.
    const COUNTS: [&str; 8] = [
        "trace.accesses_per_kinst",
        "cache.llc_ops_per_kinst",
        "cache.l1_hit_ratio",
        "cache.l2_hit_ratio",
        "core.predictions_per_kinst",
        "core.weight_updates_per_kinst",
        "core.sampler_hit_ratio",
        "core.bypass_ratio",
    ];
    /// Every simulated end-to-end metric.
    const SIMULATED: [&str; 4] = [
        "ipc_geomean",
        "mpki_mean",
        "mpppb_speedup_geomean",
        "llc_hit_rate",
    ];

    fn bits(outcome: &Outcome, names: &[&str]) -> Vec<u64> {
        names
            .iter()
            .map(|name| {
                let metric = outcome.metrics.0.iter().find(|m| m.0 == *name);
                metric.expect("metric reported").1.to_bits()
            })
            .collect()
    }

    /// The counts (traced) and the simulated metrics (untraced) are the
    /// same bits for a seed however many rounds the run makes in its time.
    #[test]
    fn metrics_do_not_depend_on_run_length() {
        for (trace, names) in [(true, &COUNTS[..]), (false, &SIMULATED[..])] {
            let clock = Clock::new(trace);
            let short = run(&SPEC, 7, 0, &clock);
            let long = run(&SPEC, 7, 1, &clock);
            assert_eq!(short.failed + long.failed, 0);
            assert!(
                long.samples > short.samples,
                "the longer run makes more rounds"
            );
            assert_eq!(bits(&short, names), bits(&long, names));
        }
    }
}
