//! Record/replay equivalence: full simulation vs the
//! record-once/replay-many path, compared bit for bit.
//!
//! The replay layer (`mrp_cache::replay` + `mrp_cpu::replay_single`)
//! claims that replaying a workload's recorded LLC-bound stream into a
//! policy reproduces full simulation exactly — same IPC bits, same MPKI
//! bits, same cycle count, same hierarchy counters. This module checks
//! that claim the same way the lockstep harness checks the shadow
//! models: run both paths on every `(policy, workload)` cell and report
//! every field that differs. One recording per workload is shared by
//! all policies, exercising the production sharing pattern.
//!
//! The MPKI-only path (`LlcRecording::replay_llc`) is held to the same
//! stream: for every policy whose `on_core_access` hook is the no-op
//! default (`uses_core_accesses() == false`), its cumulative LLC
//! counters over both windows must equal full simulation's.
//!
//! Counters cannot see LLC *order*: a demand and the prefetch fills
//! drained during it rarely share a set, so issuing them in the wrong
//! order changes no count. Per workload, a logging LRU therefore
//! records the `(block, is_prefetch)` sequence each of the three paths
//! shows the LLC, and the two replays must match full simulation's
//! sequence exactly (field `llc_order`).

use std::fmt;
use std::sync::{Arc, Mutex};

use mrp_cache::policies::Lru;
use mrp_cache::replay::LlcRecording;
use mrp_cache::{AccessInfo, Cache, HierarchyConfig, ReplacementPolicy};
use mrp_cpu::{replay_single, SingleCoreResult, SingleCoreSim};
use mrp_runtime::map_indexed;
use mrp_trace::Workload;

use crate::PolicySpec;

/// One field that differed between full simulation and replay.
#[derive(Debug, Clone)]
pub struct ReplayMismatch {
    /// Policy name.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Which result field diverged.
    pub field: &'static str,
    /// Full-simulation value, rendered.
    pub full: String,
    /// Replayed value, rendered.
    pub replayed: String,
}

impl fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}/{}] {}: full {} vs replayed {}",
            self.policy, self.workload, self.field, self.full, self.replayed
        )
    }
}

/// Outcome of a replay-equivalence sweep.
#[derive(Debug, Clone)]
pub struct ReplayCheckSummary {
    /// `(policy, workload)` cells compared.
    pub cells: usize,
    /// Every field-level difference found (empty = bit-identical).
    pub mismatches: Vec<ReplayMismatch>,
}

impl ReplayCheckSummary {
    /// Whether every cell replayed bit-identically.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl fmt::Display for ReplayCheckSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "{} replay cells bit-identical", self.cells);
        }
        writeln!(
            f,
            "{} replay mismatches ({} cells compared):",
            self.mismatches.len(),
            self.cells
        )?;
        for m in &self.mismatches {
            writeln!(f, "  {m}")?;
        }
        Ok(())
    }
}

/// Compares every result field, bit-exactly for the floating-point ones.
fn compare(
    policy: &str,
    workload: &str,
    full: &SingleCoreResult,
    replayed: &SingleCoreResult,
) -> Vec<ReplayMismatch> {
    let mut out = Vec::new();
    let mut push = |field: &'static str, a: String, b: String, equal: bool| {
        if !equal {
            out.push(ReplayMismatch {
                policy: policy.to_string(),
                workload: workload.to_string(),
                field,
                full: a,
                replayed: b,
            });
        }
    };
    push(
        "ipc",
        format!("{:?}", full.ipc),
        format!("{:?}", replayed.ipc),
        full.ipc.to_bits() == replayed.ipc.to_bits(),
    );
    push(
        "mpki",
        format!("{:?}", full.mpki),
        format!("{:?}", replayed.mpki),
        full.mpki.to_bits() == replayed.mpki.to_bits(),
    );
    push(
        "instructions",
        full.instructions.to_string(),
        replayed.instructions.to_string(),
        full.instructions == replayed.instructions,
    );
    push(
        "cycles",
        full.cycles.to_string(),
        replayed.cycles.to_string(),
        full.cycles == replayed.cycles,
    );
    push(
        "stats",
        format!("{:?}", full.stats),
        format!("{:?}", replayed.stats),
        full.stats == replayed.stats,
    );
    out
}

/// The `(block, is_prefetch)` sequence of LLC accesses a policy saw.
type LlcLog = Arc<Mutex<Vec<(u64, bool)>>>;

/// LRU that appends every LLC access it sees to a shared log (the
/// simulators want an owned `Send` policy, so the log is shared).
struct LoggingLru {
    inner: Lru,
    log: LlcLog,
}

impl LoggingLru {
    /// A logging LRU for `config`'s LLC and the log it appends to.
    fn new(config: &HierarchyConfig) -> (Box<LoggingLru>, LlcLog) {
        let log = LlcLog::default();
        let policy = LoggingLru {
            inner: Lru::new(config.llc.sets(), config.llc.associativity()),
            log: log.clone(),
        };
        (Box::new(policy), log)
    }
}

impl ReplacementPolicy for LoggingLru {
    fn name(&self) -> &str {
        "logging-lru"
    }
    fn on_access(&mut self, info: &AccessInfo) {
        self.log
            .lock()
            .expect("LLC log")
            .push((info.block, info.is_prefetch));
        self.inner.on_access(info);
    }
    fn on_hit(&mut self, info: &AccessInfo, way: u32) {
        self.inner.on_hit(info, way);
    }
    fn choose_victim(&mut self, info: &AccessInfo, occupants: &[u64]) -> u32 {
        self.inner.choose_victim(info, occupants)
    }
    fn on_fill(&mut self, info: &AccessInfo, way: u32) {
        self.inner.on_fill(info, way);
    }
}

/// The first difference between the LLC sequence full simulation
/// showed and a replayed one, rendered as `(full, replayed)`.
fn first_order_difference(
    full: &[(u64, bool)],
    replayed: &[(u64, bool)],
) -> Option<(String, String)> {
    let render = |log: &[(u64, bool)], i: usize| match log.get(i) {
        Some(&(block, prefetch)) => {
            let kind = if prefetch { "prefetch" } else { "demand" };
            format!("#{i} {kind} {block:#x} of {}", log.len())
        }
        None => format!("end after {}", log.len()),
    };
    let i = full
        .iter()
        .zip(replayed)
        .position(|(a, b)| a != b)
        .unwrap_or(full.len().min(replayed.len()));
    (full.len() != replayed.len() || i < full.len()).then(|| (render(full, i), render(replayed, i)))
}

/// Compares the LLC sequence of full simulation with those of
/// `replay_single` and `replay_llc` on one workload.
fn check_llc_order(
    workload: &Workload,
    recording: &LlcRecording,
    config: &HierarchyConfig,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> Vec<ReplayMismatch> {
    let (policy, full) = LoggingLru::new(config);
    SingleCoreSim::new(*config, policy, workload.trace(seed)).run(warmup, measure);
    let (policy, timed) = LoggingLru::new(config);
    replay_single(
        recording,
        &mut Cache::new(config.llc, policy),
        &config.latencies,
    );
    let (policy, fast) = LoggingLru::new(config);
    recording.replay_llc(&mut Cache::new(config.llc, policy));

    let full = full.lock().expect("LLC log");
    let mut out = Vec::new();
    for (field, log) in [("llc_order", timed), ("llc_order (replay_llc)", fast)] {
        if let Some((want, got)) = first_order_difference(&full, &log.lock().expect("LLC log")) {
            out.push(ReplayMismatch {
                policy: "logging-lru".to_string(),
                workload: workload.name().to_string(),
                field,
                full: want,
                replayed: got,
            });
        }
    }
    out
}

/// Runs every `(policy, workload)` cell both ways — full simulation and
/// record+replay — and collects every field that differs. Recordings are
/// taken once per workload and shared across policies, exactly as the
/// experiment drivers share them. Cells whose policy ignores the core
/// access stream also replay through `replay_llc`, whose cumulative LLC
/// counters must equal full simulation's (field `llc_stats (replay_llc)`).
/// Each workload's LLC access order is checked once, under a logging LRU
/// (fields `llc_order` and `llc_order (replay_llc)`).
pub fn run_replay_check(
    policies: &[PolicySpec],
    workloads: &[Workload],
    warmup: u64,
    measure: u64,
    seed: u64,
) -> ReplayCheckSummary {
    let config = HierarchyConfig::single_thread();
    let recordings: Vec<LlcRecording> = mrp_runtime::par_map(workloads, |w| {
        LlcRecording::record(w.name(), w.trace(seed), &config, warmup, measure)
    });
    let cells = policies.len() * workloads.len();
    let order = map_indexed(workloads.len(), |wi| {
        check_llc_order(
            &workloads[wi],
            &recordings[wi],
            &config,
            warmup,
            measure,
            seed,
        )
    });
    let mismatches: Vec<ReplayMismatch> = map_indexed(cells, |cell| {
        let (pi, wi) = (cell / workloads.len(), cell % workloads.len());
        let spec = &policies[pi];
        let w = &workloads[wi];
        let mut sim = SingleCoreSim::new(config, (spec.build)(&config.llc), w.trace(seed));
        let full = sim.run(warmup, measure);
        let mut cache = Cache::new(config.llc, (spec.build)(&config.llc));
        let replayed = replay_single(&recordings[wi], &mut cache, &config.latencies);
        let mut mismatches = compare(&spec.name, w.name(), &full, &replayed);
        if !cache.policy().uses_core_accesses() {
            let mut fast = Cache::new(config.llc, (spec.build)(&config.llc));
            recordings[wi].replay_llc(&mut fast);
            let (want, got) = (sim.hierarchy().llc().stats(), fast.stats());
            if want != got {
                mismatches.push(ReplayMismatch {
                    policy: spec.name.clone(),
                    workload: w.name().to_string(),
                    field: "llc_stats (replay_llc)",
                    full: format!("{want:?}"),
                    replayed: format!("{got:?}"),
                });
            }
        }
        mismatches
    })
    .into_iter()
    .chain(order)
    .flatten()
    .collect();
    ReplayCheckSummary { cells, mismatches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_baselines::PolicyKind;
    use mrp_trace::workloads;

    #[test]
    fn replay_matches_full_simulation_on_small_cells() {
        let suite = workloads::suite();
        let summary = run_replay_check(
            &[PolicyKind::Lru, PolicyKind::Srrip].map(PolicySpec::from),
            &suite[..2],
            10_000,
            40_000,
            5,
        );
        assert_eq!(summary.cells, 4);
        assert!(summary.is_clean(), "{summary}");
    }

    #[test]
    fn order_difference_names_the_first_diverging_access() {
        let full = [(1, false), (2, true), (3, false)];
        assert_eq!(first_order_difference(&full, &full), None);
        let swapped = [(2, true), (1, false), (3, false)];
        let (want, got) = first_order_difference(&full, &swapped).expect("differs");
        assert_eq!(want, "#0 demand 0x1 of 3");
        assert_eq!(got, "#0 prefetch 0x2 of 3");
        let (want, got) = first_order_difference(&full, &full[..2]).expect("shorter");
        assert_eq!(
            (want.as_str(), got.as_str()),
            ("#2 demand 0x3 of 3", "end after 2")
        );
    }

    #[test]
    fn mismatch_rendering_names_the_cell_and_field() {
        let a = SingleCoreResult {
            ipc: 1.0,
            mpki: 2.0,
            instructions: 100,
            cycles: 200,
            stats: Default::default(),
        };
        let mut b = a;
        b.cycles = 201;
        let mismatches = compare("lru", "stream.a", &a, &b);
        assert_eq!(mismatches.len(), 1);
        let rendered = mismatches[0].to_string();
        assert!(rendered.contains("lru/stream.a"), "{rendered}");
        assert!(rendered.contains("cycles"), "{rendered}");
    }
}
