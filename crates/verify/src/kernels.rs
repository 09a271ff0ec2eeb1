//! Kernel-identity pass: every hot-path kernel against the interpretive
//! reference.
//!
//! The lane-SoA rewrite of the index hot path (see `mrp_core::plan`)
//! left three ways to compute the same arena offsets:
//!
//! 1. the interpretive reference — [`Feature::index`] plus a running
//!    table base, the definition the paper gives;
//! 2. the per-feature compiled path
//!    ([`FeaturePlan::compute_offsets_compiled`]);
//! 3. the lane kernel at each available SIMD level
//!    ([`FeaturePlan::compute_offsets_with`] over
//!    [`simd::available_levels`], which pairs AVX2 against scalar on
//!    machines that have it).
//!
//! This pass fuzzes feature sets ([`kernel_features`]) and access
//! contexts per job and asserts all three agree bit for bit, then
//! randomizes the weight arena and asserts that
//! [`WeightTables::confidence_with`] and the predictor's fused
//! [`FeaturePlan::predict_with`] (offsets and confidence from one lane
//! pass) agree at every level with a per-table weight-sum reference. The
//! fused predict also runs at the edge of its gather bound: on the
//! shortest arena slice the unchecked gather accepts, and on one entry
//! less, which must take the checked fallback. Any mismatch reproduces
//! from `(seed, job)` alone.

use mrp_core::context::{FeatureContext, HISTORY_DEPTH};
use mrp_core::simd::{self, GATHER_PAD};
use mrp_core::tables::{WeightTables, WEIGHT_MAX, WEIGHT_MIN};
use mrp_core::{Feature, FeaturePlan};
use mrp_runtime::map_indexed;

use crate::divergence::{Divergence, DivergenceReport};
use crate::fuzzer::{gen_features, gen_features_with_count, SplitMix};

/// Fuzzed contexts checked per job. Each context is compared across all
/// kernels and levels, so a few hundred already cover the flag
/// combinations, warm/cold history, and extreme PC/address patterns.
const CONTEXTS_PER_JOB: usize = 384;

/// An owned fuzzed access context ([`FeatureContext`] borrows the PC
/// history, so the fuzzer stores it inline and lends out views).
struct CtxSpec {
    pc: u64,
    address: u64,
    history: [u64; HISTORY_DEPTH],
    history_len: usize,
    is_mru: bool,
    is_insert: bool,
    last_miss: bool,
}

impl CtxSpec {
    fn random(rng: &mut SplitMix) -> Self {
        let mut history = [0u64; HISTORY_DEPTH];
        for slot in &mut history {
            *slot = rng.next_u64();
        }
        // Every eighth context pins PC/address to an extreme so the fold
        // and shift paths see all-ones and all-zeros lanes.
        let (pc, address) = match rng.below(8) {
            0 => (u64::MAX, 0),
            1 => (0, u64::MAX),
            _ => (rng.next_u64(), rng.next_u64()),
        };
        CtxSpec {
            pc,
            address,
            history,
            history_len: rng.below(HISTORY_DEPTH as u64 + 1) as usize,
            is_mru: rng.below(2) == 1,
            is_insert: rng.below(2) == 1,
            last_miss: rng.below(2) == 1,
        }
    }

    fn view(&self) -> FeatureContext<'_> {
        FeatureContext {
            pc: self.pc,
            address: self.address,
            pc_history: &self.history[..self.history_len],
            is_mru: self.is_mru,
            is_insert: self.is_insert,
            last_miss: self.last_miss,
        }
    }
}

/// The interpretive reference: each feature's own index plus its table's
/// running arena base — the definition every optimized kernel must match.
fn reference_offsets(features: &[Feature], bases: &[u16], ctx: &FeatureContext<'_>) -> Vec<u16> {
    features
        .iter()
        .zip(bases)
        .map(|(f, base)| base + f.index(ctx))
        .collect()
}

/// Per-table weight-sum confidence reference, bypassing the gather-sum
/// kernel entirely.
fn reference_confidence(
    tables: &WeightTables,
    features: &[Feature],
    ctx: &FeatureContext<'_>,
) -> i32 {
    features
        .iter()
        .enumerate()
        .map(|(t, f)| i32::from(tables.weight(t, f.index(ctx))))
        .sum()
}

/// Drives every weight in the arena to a random value within the
/// saturation bounds, so confidence sums exercise mixed-sign weights.
fn randomize_weights(tables: &mut WeightTables, rng: &mut SplitMix) {
    let (min, max) = (WEIGHT_MIN, WEIGHT_MAX);
    let span = i64::from(max) - i64::from(min) + 1;
    for offset in 0..tables.arena_len() {
        let target = i64::from(min) + rng.below(span as u64) as i64;
        let offset = offset as u16;
        for _ in 0..target.abs() {
            if target >= 0 {
                tables.increment_at(offset);
            } else {
                tables.decrement_at(offset);
            }
        }
    }
}

/// Feature-set notation used as the divergence subject, mirroring the
/// predictor lockstep's reporting.
fn notation(features: &[Feature]) -> String {
    features
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

/// The feature set job `job` checks. [`gen_features`] draws 1–12
/// features, which never fill a 16-lane row, so every third job draws
/// exactly 16 and every third 17–24 (a full row plus a second row that
/// is mostly pad lanes).
fn kernel_features(seed: u64, job: usize, rng: &mut SplitMix) -> Vec<Feature> {
    match job % 3 {
        0 => gen_features(seed, job),
        1 => gen_features_with_count(seed, job, 16),
        _ => gen_features_with_count(seed, job, 17 + rng.below(8) as usize),
    }
}

/// Runs the kernel-identity check for one `(seed, job)` pair.
pub fn check_kernels_job(seed: u64, job: usize) -> DivergenceReport {
    check_job(seed, job).0
}

/// [`check_kernels_job`], also counting the contexts whose offsets
/// select the arena's last entry: only those make the edge slices'
/// gathers read up to the slice end.
fn check_job(seed: u64, job: usize) -> (DivergenceReport, usize) {
    let mut rng = SplitMix::new(seed ^ (job as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    let features = kernel_features(seed, job, &mut rng);
    let subject = notation(&features);
    let plan = FeaturePlan::new(&features);
    let mut tables = WeightTables::new(&features);
    randomize_weights(&mut tables, &mut rng);
    let bases: Vec<u16> = features
        .iter()
        .scan(0u16, |base, f| {
            let this = *base;
            *base += f.table_size() as u16;
            Some(this)
        })
        .collect();

    let specs: Vec<CtxSpec> = (0..CONTEXTS_PER_JOB)
        .map(|_| CtxSpec::random(&mut rng))
        .collect();
    let mut report = DivergenceReport::default();
    let push = |report: &mut DivergenceReport, index: usize, detail: String| {
        report.push(Divergence {
            access_index: index,
            access: None,
            subject: subject.clone(),
            detail,
        });
    };

    // The last table ends the arena, so the plan's largest offset is
    // `arena_len - 1` and `shortest` is the least arena the unchecked
    // gather accepts; one entry less must take the checked fallback.
    let padded = tables.padded_arena();
    let last = tables.arena_len() - 1;
    let shortest = last + GATHER_PAD;
    let mut arena_end_contexts = 0;

    // Per-context identity: reference vs compiled vs each lane level,
    // and the confidence kernel family and the fused predict (on the
    // padded arena and both edge slices) vs the per-table weight sum.
    let mut out = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let ctx = spec.view();
        let reference = reference_offsets(&features, &bases, &ctx);
        let expected = reference_confidence(&tables, &features, &ctx);
        arena_end_contexts += usize::from(reference.contains(&(last as u16)));
        plan.compute_offsets_compiled(&ctx, &mut out);
        if out != reference {
            push(
                &mut report,
                i,
                format!("compiled offsets {out:?} != reference {reference:?}"),
            );
        }
        for &level in simd::available_levels() {
            plan.compute_offsets_with(level, &ctx, &mut out);
            if out != reference {
                push(
                    &mut report,
                    i,
                    format!(
                        "{} lane offsets {out:?} != reference {reference:?}",
                        level.name()
                    ),
                );
            }
            let confidence = tables.confidence_with(level, &reference);
            if confidence != expected {
                push(
                    &mut report,
                    i,
                    format!(
                        "{} confidence {confidence} != reference {expected}",
                        level.name()
                    ),
                );
            }
            for len in [padded.len(), shortest, shortest - 1] {
                let predicted = plan.predict_with(level, &ctx, &mut out, &padded[..len]);
                if out != reference || predicted != expected {
                    push(
                        &mut report,
                        i,
                        format!(
                            "{} predict on {len} of {} arena entries ({predicted}, {out:?}) \
                             != reference ({expected}, {reference:?})",
                            level.name(),
                            padded.len()
                        ),
                    );
                }
            }
        }
    }
    (report, arena_end_contexts)
}

/// Runs the kernel-identity pass across `jobs` fuzz jobs in parallel,
/// returning one report per job.
pub fn run_kernel_check(seed: u64, jobs: usize) -> Vec<DivergenceReport> {
    map_indexed(jobs.max(1), |job| check_kernels_job(seed, job))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzed_kernels_are_identical_across_paths() {
        for report in run_kernel_check(42, 4) {
            assert!(report.is_clean(), "{report}");
        }
    }

    #[test]
    fn default_jobs_gather_the_last_arena_entry() {
        // The edge slices only test the bound if some context's offsets
        // select the arena's last entry.
        let cfg = crate::VerifyConfig::default();
        let hits: usize = (0..cfg.jobs).map(|job| check_job(cfg.seed, job).1).sum();
        assert!(hits > 0, "no context selected the last arena entry");
    }

    #[test]
    fn kernel_check_is_deterministic_in_seed() {
        // Same seed, same verdict and same divergence count — the pass
        // must reproduce from (seed, job) alone.
        let a = check_kernels_job(7, 2);
        let b = check_kernels_job(7, 2);
        assert_eq!(a.total, b.total);
        assert!(a.is_clean());
    }

    #[test]
    fn kernel_pass_draws_full_and_two_row_plans() {
        // The kernel pass covers plans of 1-12, exactly 16 and 17-24
        // features; the lockstep passes' `gen_features` draws are the
        // ones they always were.
        let mut counts = Vec::new();
        for job in 0..24 {
            let mut rng = SplitMix::new(job as u64);
            let features = kernel_features(5, job, &mut rng);
            if job % 3 == 0 {
                assert_eq!(notation(&features), notation(&gen_features(5, job)));
            }
            counts.push(features.len());
        }
        assert!(counts.iter().any(|&n| (1..=12).contains(&n)));
        assert!(counts.contains(&16));
        assert!(counts.iter().any(|&n| n > 16) && counts.iter().all(|&n| n <= 24));
        assert!((0..16).all(|job| (1..=12).contains(&gen_features(11, job).len())));
    }

    #[test]
    fn randomized_weights_cover_both_signs() {
        let features = gen_features(3, 0);
        let mut tables = WeightTables::new(&features);
        let mut rng = SplitMix::new(99);
        randomize_weights(&mut tables, &mut rng);
        let (min, max) = (WEIGHT_MIN, WEIGHT_MAX);
        let weights: Vec<i8> = (0..tables.arena_len())
            .map(|o| {
                let t = features
                    .iter()
                    .scan(0usize, |b, f| {
                        let r = *b;
                        *b += f.table_size();
                        Some(r)
                    })
                    .take_while(|&b| b <= o)
                    .count()
                    - 1;
                let base: usize = features[..t].iter().map(|f| f.table_size()).sum();
                tables.weight(t, (o - base) as u16)
            })
            .collect();
        assert!(weights.iter().any(|&w| w < 0) && weights.iter().any(|&w| w > 0));
        assert!(weights.iter().all(|&w| w >= min && w <= max));
    }
}
