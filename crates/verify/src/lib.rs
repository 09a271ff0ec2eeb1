//! Differential verification subsystem.
//!
//! Three pillars, combined by [`run_verification`]:
//!
//! 1. **Shadow reference models** ([`reference`]): the naive
//!    `Option<u64>`-per-way cache and the per-table loop-fold predictor
//!    run in lockstep ([`lockstep`]) with the optimized SoA cache and
//!    flat-arena predictor on the same stream, asserting bit-equal
//!    results at every access.
//! 2. **Simulation invariants** ([`invariants`]): structural checks run
//!    after every access in verify mode and wired as `debug_assert!`s in
//!    the hot paths, including the oracle bound that no policy beats
//!    Belady MIN on the recorded demand stream.
//! 3. **Deterministic trace fuzzer** ([`fuzzer`]): seed-derived streams,
//!    geometries, and feature specs fanned out across the `mrp-runtime`
//!    pool with index-ordered collection, plus a greedy shrinker that
//!    minimizes a failing stream before it is reported.
//! 4. **Kernel identity** ([`kernels`]): the lane-SoA/SIMD index
//!    kernels, the gather-sum confidence kernel and the fused predict
//!    kernel checked bit-identical to the interpretive `Feature::index`
//!    reference on fuzzed feature sets, at every SIMD level the machine
//!    offers.
//!
//! A separately-invoked pillar ([`replay_check`]) proves the
//! record-once/replay-many fast path bit-identical to full simulation
//! on real workload traces, per `(policy, workload)` cell.
//!
//! Everything reproduces from a single `u64` seed: the same seed, access
//! count, and job count replay the identical streams regardless of thread
//! count.

pub mod divergence;
pub mod fuzzer;
pub mod invariants;
pub mod kernels;
pub mod lockstep;
pub mod reference;
pub mod replay_check;

use std::fmt;
use std::sync::Arc;

use mrp_baselines::{MinPolicy, PolicyKind};
use mrp_cache::{Cache, CacheConfig, ReplacementPolicy};
use mrp_runtime::map_indexed;

pub use divergence::{Divergence, DivergenceReport, MAX_REPORTED};
pub use fuzzer::{gen_features, gen_stream, job_profile, shrink, SplitMix, StreamProfile};
pub use kernels::{check_kernels_job, run_kernel_check};
pub use lockstep::{run_lockstep, run_predictor_lockstep, DualCache, PredictorPair, StreamItem};
pub use reference::{ReferenceCache, ReferencePredictor};
pub use replay_check::{run_replay_check, ReplayCheckSummary, ReplayMismatch};

/// A policy factory shared across verification jobs. Called once per
/// lockstep side per stream, so both sides get identically-constructed
/// instances.
pub type PolicyBuilder =
    Arc<dyn Fn(&CacheConfig) -> Box<dyn ReplacementPolicy + Send> + Send + Sync>;

/// A named policy under verification.
///
/// Registered policies come from [`PolicyKind`] (`PolicySpec::from`);
/// [`PolicySpec::new`] also takes any other factory, which is how the
/// tests plant deliberately broken policies.
#[derive(Clone)]
pub struct PolicySpec {
    /// Display name (a registered policy's [`PolicyKind::key`]).
    pub name: String,
    /// Factory for fresh instances.
    pub build: PolicyBuilder,
}

impl PolicySpec {
    /// Creates a spec.
    pub fn new(name: &str, build: PolicyBuilder) -> Self {
        PolicySpec {
            name: name.to_string(),
            build,
        }
    }
}

impl From<PolicyKind> for PolicySpec {
    /// The registered policy `kind`, named by its command-line key.
    fn from(kind: PolicyKind) -> Self {
        PolicySpec::new(
            kind.key(),
            Arc::new(move |llc: &CacheConfig| kind.build(llc)),
        )
    }
}

/// Verification parameters.
#[derive(Debug, Clone, Copy)]
pub struct VerifyConfig {
    /// Master seed; every stream and feature spec derives from it.
    pub seed: u64,
    /// Total accesses, split across jobs.
    pub accesses: usize,
    /// Independent fuzz jobs (each with its own geometry and stream).
    pub jobs: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            seed: 42,
            accesses: 1_000_000,
            jobs: 8,
        }
    }
}

/// Lockstep outcome of one `(policy, job)` cell.
#[derive(Clone)]
pub struct PolicyCell {
    /// Policy name.
    pub policy: String,
    /// Fuzz job index.
    pub job: usize,
    /// Demand misses taken by the optimized side.
    pub demand_misses: u64,
    /// MIN's demand misses on the same stream (`None` for prefetch jobs,
    /// where the demand-only oracle does not apply).
    pub min_misses: Option<u64>,
    /// Divergences observed (lockstep mismatches, invariant violations,
    /// and MIN-bound violations).
    pub report: DivergenceReport,
}

/// A failing stream minimized by the shrinker.
pub struct ShrunkFailure {
    /// What failed: a policy name or feature-set notation.
    pub subject: String,
    /// The originating fuzz job.
    pub job: usize,
    /// The master seed (for regeneration).
    pub seed: u64,
    /// The minimized stream that still reproduces the failure.
    pub stream: Vec<StreamItem>,
    /// The report produced by the minimized stream.
    pub report: DivergenceReport,
}

impl fmt::Display for ShrunkFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "shrunk reproducer for [{}] (seed {}, job {}): {} accesses",
            self.subject,
            self.seed,
            self.job,
            self.stream.len()
        )?;
        for (i, (a, p)) in self.stream.iter().enumerate() {
            writeln!(f, "  {i:4}: {a}{}", if *p { " [prefetch]" } else { "" })?;
        }
        write!(f, "{}", self.report)
    }
}

/// Everything one verification run produced.
pub struct VerifySummary {
    /// The master seed.
    pub seed: u64,
    /// Fuzz jobs run per policy.
    pub jobs: usize,
    /// Accesses per job.
    pub accesses_per_job: usize,
    /// One cell per `(policy, job)` pair.
    pub policy_cells: Vec<PolicyCell>,
    /// Predictor lockstep reports, one per job.
    pub predictor_reports: Vec<DivergenceReport>,
    /// Kernel-identity reports (lane/SIMD kernels vs the
    /// interpretive reference), one per job.
    pub kernel_reports: Vec<DivergenceReport>,
    /// `(applied, total)` MIN-bound checks.
    pub min_checks: (usize, usize),
    /// A minimized reproducer for the first failure, if any failed.
    pub shrunk: Option<ShrunkFailure>,
}

impl VerifySummary {
    /// Whether every cell and predictor job was divergence-free.
    pub fn is_clean(&self) -> bool {
        self.policy_cells.iter().all(|c| c.report.is_clean())
            && self.predictor_reports.iter().all(|r| r.is_clean())
            && self.kernel_reports.iter().all(|r| r.is_clean())
    }

    /// Total divergences across all cells, predictor jobs, and kernel
    /// jobs.
    pub fn total_divergences(&self) -> usize {
        self.policy_cells
            .iter()
            .map(|c| c.report.total)
            .chain(self.predictor_reports.iter().map(|r| r.total))
            .chain(self.kernel_reports.iter().map(|r| r.total))
            .sum()
    }
}

/// MIN's demand-miss count on the demand-block stream of one job (the
/// oracle floor for every policy's demand misses on that stream).
fn min_demand_misses(geometry: &CacheConfig, stream: &[StreamItem]) -> u64 {
    let blocks: Vec<u64> = stream
        .iter()
        .filter(|(_, p)| !p)
        .map(|(a, _)| a.block())
        .collect();
    let policy = MinPolicy::new(geometry, &blocks);
    let mut cache = Cache::new(*geometry, Box::new(policy));
    for (access, is_prefetch) in stream {
        if !is_prefetch {
            let _ = cache.access(access, false);
        }
    }
    cache.stats().demand_misses
}

/// Runs the full verification: per-job MIN floors, policy lockstep cells,
/// predictor lockstep jobs, kernel-identity jobs, and — if a stream-driven
/// check failed — one shrunk reproducer.
pub fn run_verification(cfg: &VerifyConfig, policies: &[PolicySpec]) -> VerifySummary {
    let per_job = (cfg.accesses / cfg.jobs.max(1)).max(64);
    let jobs = cfg.jobs.max(1);

    // Phase 1: MIN floors, one per fuzz job (demand-only jobs).
    let min_floors: Vec<Option<u64>> = map_indexed(jobs, |job| {
        let profile = job_profile(cfg.seed, job);
        if profile.prefetches {
            return None;
        }
        let stream = gen_stream(cfg.seed, job, per_job);
        Some(min_demand_misses(&profile.geometry, &stream))
    });

    // Phase 2: policy lockstep over every (policy, job) cell.
    let cells = policies.len() * jobs;
    let policy_cells: Vec<PolicyCell> = map_indexed(cells, |cell| {
        let (pi, job) = (cell / jobs, cell % jobs);
        let spec = &policies[pi];
        let profile = job_profile(cfg.seed, job);
        let stream = gen_stream(cfg.seed, job, per_job);
        let (mut report, demand_misses) = run_lockstep(
            &profile.geometry,
            &spec.name,
            &|llc| (spec.build)(llc),
            &stream,
        );
        // The MIN bound is only meaningful when the lockstep run itself
        // was clean (a diverged cache's miss count is already suspect).
        if report.is_clean() {
            if let Some(floor) = min_floors[job] {
                if let Err(detail) = invariants::check_min_bound(demand_misses, floor) {
                    report.push(Divergence {
                        access_index: stream.len(),
                        access: None,
                        subject: spec.name.clone(),
                        detail,
                    });
                }
            }
        }
        PolicyCell {
            policy: spec.name.clone(),
            job,
            demand_misses,
            min_misses: min_floors[job],
            report,
        }
    });

    // Phase 3: predictor lockstep, one random feature spec per job.
    let predictor_reports: Vec<DivergenceReport> = map_indexed(jobs, |job| {
        let features = gen_features(cfg.seed, job);
        let stream = gen_stream(cfg.seed, job, per_job);
        // Odd jobs use a non-power-of-two sampler-set count to exercise
        // the division sampling path; even jobs the pow2 mask path.
        let sampler_sets = if job % 2 == 1 { 48 } else { 32 };
        let theta = (job % 3) as i32 * 30 + 10;
        run_predictor_lockstep(&features, 256, sampler_sets, theta, &stream)
    });

    // Phase 4: kernel identity — the lane/SIMD index kernels, the
    // gather-sum confidence kernel and the fused predict kernel against
    // the interpretive reference, on fuzzed feature sets and contexts
    // (including full 16-lane and two-row plans). A failure here
    // reproduces from (seed, job) alone, so no stream shrinking applies.
    let kernel_reports = kernels::run_kernel_check(cfg.seed, jobs);

    // Phase 5: shrink the first stream-driven failure to a minimal
    // reproducer.
    let shrunk = shrink_first_failure(cfg, per_job, policies, &policy_cells, &predictor_reports);

    let applied = min_floors.iter().filter(|f| f.is_some()).count() * policies.len();
    VerifySummary {
        seed: cfg.seed,
        jobs,
        accesses_per_job: per_job,
        policy_cells,
        predictor_reports,
        kernel_reports,
        min_checks: (applied, cells),
        shrunk,
    }
}

fn shrink_first_failure(
    cfg: &VerifyConfig,
    per_job: usize,
    policies: &[PolicySpec],
    policy_cells: &[PolicyCell],
    predictor_reports: &[DivergenceReport],
) -> Option<ShrunkFailure> {
    if let Some(cell) = policy_cells.iter().find(|c| !c.report.is_clean()) {
        let spec = policies.iter().find(|p| p.name == cell.policy)?;
        let profile = job_profile(cfg.seed, cell.job);
        let stream = gen_stream(cfg.seed, cell.job, per_job);
        let fails = |candidate: &[StreamItem]| -> DivergenceReport {
            let (mut report, misses) = run_lockstep(
                &profile.geometry,
                &spec.name,
                &|llc| (spec.build)(llc),
                candidate,
            );
            if report.is_clean() && cell.min_misses.is_some() {
                let floor = min_demand_misses(&profile.geometry, candidate);
                if let Err(detail) = invariants::check_min_bound(misses, floor) {
                    report.push(Divergence {
                        access_index: candidate.len(),
                        access: None,
                        subject: spec.name.clone(),
                        detail,
                    });
                }
            }
            report
        };
        let minimized = shrink(&stream, &mut |c| !fails(c).is_clean());
        let report = fails(&minimized);
        return Some(ShrunkFailure {
            subject: cell.policy.clone(),
            job: cell.job,
            seed: cfg.seed,
            stream: minimized,
            report,
        });
    }
    let (job, _) = predictor_reports
        .iter()
        .enumerate()
        .find(|(_, r)| !r.is_clean())?;
    let features = gen_features(cfg.seed, job);
    let stream = gen_stream(cfg.seed, job, per_job);
    let sampler_sets = if job % 2 == 1 { 48 } else { 32 };
    let theta = (job % 3) as i32 * 30 + 10;
    let subject = features
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(" ");
    let minimized = shrink(&stream, &mut |c| {
        !run_predictor_lockstep(&features, 256, sampler_sets, theta, c).is_clean()
    });
    let report = run_predictor_lockstep(&features, 256, sampler_sets, theta, &minimized);
    Some(ShrunkFailure {
        subject,
        job,
        seed: cfg.seed,
        stream: minimized,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_cache::policies::Lru;
    use mrp_cache::AccessInfo;

    #[test]
    fn specs_build_the_policy_their_kind_builds() {
        for llc in [CacheConfig::llc_single(), CacheConfig::llc_multi()] {
            for kind in PolicyKind::ALL {
                let spec = PolicySpec::from(kind);
                assert_eq!(spec.name, kind.key());
                assert_eq!((spec.build)(&llc).name(), kind.build(&llc).name());
            }
        }
    }

    #[test]
    fn clean_policies_verify_clean() {
        let cfg = VerifyConfig {
            seed: 7,
            accesses: 4_000,
            jobs: 4,
        };
        let specs = [PolicyKind::Lru, PolicyKind::Srrip].map(PolicySpec::from);
        let summary = run_verification(&cfg, &specs);
        assert!(
            summary.is_clean(),
            "divergences: {}",
            summary.total_divergences()
        );
        assert_eq!(summary.policy_cells.len(), 8);
        assert_eq!(summary.predictor_reports.len(), 4);
        assert_eq!(summary.kernel_reports.len(), 4);
        assert!(summary.shrunk.is_none());
        // Jobs 0..4 include one prefetch job (job 3), so 3 of 4 floors apply.
        assert_eq!(summary.min_checks.0, 6);
    }

    /// LRU with an off-by-one victim choice: evicts the way *after* the
    /// true LRU way. A planted bug the lockstep harness must catch.
    struct BuggyLru {
        inner: Lru,
        assoc: u32,
    }

    impl ReplacementPolicy for BuggyLru {
        fn name(&self) -> &str {
            "buggy-lru"
        }
        fn on_hit(&mut self, info: &AccessInfo, way: u32) {
            self.inner.on_hit(info, way);
        }
        fn choose_victim(&mut self, info: &AccessInfo, occupants: &[u64]) -> u32 {
            (self.inner.choose_victim(info, occupants) + 1) % self.assoc
        }
        fn on_fill(&mut self, info: &AccessInfo, way: u32) {
            self.inner.on_fill(info, way);
        }
    }

    #[test]
    fn planted_off_by_one_is_caught_and_shrunk_small() {
        let llc = CacheConfig::new(64 * 16 * 2, 16);
        // 64 distinct blocks (32 per set, twice the associativity) force
        // evictions, where the off-by-one victim must diverge.
        let stream: Vec<StreamItem> = (0..4_000u64)
            .map(|i| {
                let block = (i * 17 + i / 64) % 64;
                (
                    mrp_trace::MemoryAccess::load(0x400000 + (i % 5) * 4, block * 64),
                    false,
                )
            })
            .collect();
        let run = |candidate: &[StreamItem]| -> DivergenceReport {
            let mut dual = DualCache::with_policies(
                llc,
                "buggy-lru",
                Box::new(BuggyLru {
                    inner: Lru::new(llc.sets(), llc.associativity()),
                    assoc: llc.associativity(),
                }),
                Box::new(Lru::new(llc.sets(), llc.associativity())),
            );
            let mut report = DivergenceReport::default();
            for (i, (a, p)) in candidate.iter().enumerate() {
                dual.step(i, a, *p, &mut report);
                if report.saturated() {
                    break;
                }
            }
            dual.finish(candidate.len(), &mut report);
            report
        };
        assert!(!run(&stream).is_clean(), "planted bug must diverge");
        let minimized = shrink(&stream, &mut |c| !run(c).is_clean());
        assert!(
            minimized.len() <= 50,
            "reproducer not minimal: {} accesses",
            minimized.len()
        );
        assert!(!run(&minimized).is_clean());
    }
}
