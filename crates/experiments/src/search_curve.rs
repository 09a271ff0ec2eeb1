//! Feature-search distribution (Figure 3).
//!
//! Evaluates many random 16-feature sets on the fast MPKI-only simulator,
//! sorts them (descending MPKI, as the figure plots), and overlays the
//! LRU and MIN reference lines plus the result of hill climbing from the
//! best random set.

use mrp_baselines::MinPolicy;
use mrp_cache::policies::Lru;
use mrp_search::{FastEvaluator, HillClimber, RandomFeatures};
use mrp_trace::Workload;

use crate::runner::{record, RunScale};

/// Results of the search experiment.
#[derive(Debug, Clone)]
pub struct SearchCurve {
    /// MPKI of each random feature set, sorted descending (worst first).
    pub random_mpkis: Vec<f64>,
    /// LRU reference MPKI.
    pub lru_mpki: f64,
    /// Belady MIN (with bypass) reference MPKI.
    pub min_mpki: f64,
    /// MPKI after hill climbing from the best random set.
    pub hillclimbed_mpki: f64,
    /// Hill-climb move statistics (attempts, accepted).
    pub hillclimb_moves: (u32, u32),
}

/// Configuration of the search experiment.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams {
    /// Number of random 16-feature sets (the paper uses 4,000).
    pub candidates: usize,
    /// Workloads evaluated, the first of the suite's cross-validation
    /// half A.
    pub workload_count: usize,
    /// Instructions recorded per workload.
    pub instructions: u64,
    /// Hill-climb convergence patience and move cap.
    pub patience: u32,
    /// Maximum hill-climbing moves.
    pub max_moves: u32,
    /// Seed for the workload traces, random sets, and hill climbing.
    /// The split itself always uses [`crate::SPLIT_SEED`].
    pub seed: u64,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            candidates: 80,
            workload_count: 10,
            instructions: 2_000_000,
            patience: 20,
            max_moves: 150,
            seed: 17,
        }
    }
}

/// The workloads the search evaluates: the first `workload_count` (at
/// least one) of the fixed split's half A, the half `co_tune --half a`
/// tunes on, whatever `seed` is.
fn training_workloads(params: &SearchParams) -> Vec<Workload> {
    crate::suite_half("a")
        .expect("half a exists")
        .into_iter()
        .take(params.workload_count.max(1))
        .collect()
}

/// Runs the experiment.
pub fn run(params: SearchParams) -> SearchCurve {
    let selected = training_workloads(&params);
    let scale = RunScale::single_thread()
        .warmup(0)
        .measure(params.instructions)
        .seed(params.seed);
    let evaluator =
        FastEvaluator::from_recordings(mrp_runtime::par_map(&selected, |w| record(w, scale)));

    let lru_mpki =
        evaluator.average_mpki_with(|llc, _| Box::new(Lru::new(llc.sets(), llc.associativity())));
    let min_mpki =
        evaluator.average_mpki_with(|llc, r| Box::new(MinPolicy::new(llc, &r.llc_blocks())));

    // The candidate sets are drawn serially (one deterministic RNG
    // stream), then evaluated in parallel — every evaluation replays
    // recorded traces against its own policy instance, so candidate
    // scores are independent of the schedule.
    let mut generator = RandomFeatures::new(params.seed);
    let sets: Vec<Vec<mrp_core::Feature>> = (0..params.candidates.max(1))
        .map(|_| generator.feature_set(16))
        .collect();
    let mpkis = mrp_runtime::par_map(&sets, |set| evaluator.average_mpki(set));
    let mut scored: Vec<(f64, Vec<mrp_core::Feature>)> = mpkis.into_iter().zip(sets).collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite mpki"));

    let best = scored.last().expect("at least one candidate").clone();
    let mut climber = HillClimber::new(params.seed ^ 0xc11b, params.patience, params.max_moves);
    let report = climber.climb(&evaluator, best.1);

    SearchCurve {
        random_mpkis: scored.iter().map(|(m, _)| *m).collect(),
        lru_mpki,
        min_mpki,
        hillclimbed_mpki: report.mpki,
        hillclimb_moves: (report.attempts, report.accepted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_half_does_not_depend_on_the_seed() {
        let names = |seed| -> Vec<String> {
            let params = SearchParams {
                seed,
                workload_count: 40,
                ..SearchParams::default()
            };
            training_workloads(&params)
                .iter()
                .map(|w| w.name().to_string())
                .collect()
        };
        let at_split_seed = names(crate::SPLIT_SEED);
        assert_eq!(
            at_split_seed.len(),
            crate::suite_half("a").expect("half a").len()
        );
        for seed in [1, 5, 99] {
            assert_eq!(names(seed), at_split_seed, "seed {seed}");
        }
    }

    #[test]
    fn search_curve_has_expected_structure() {
        let params = SearchParams {
            candidates: 4,
            workload_count: 2,
            instructions: 150_000,
            patience: 2,
            max_moves: 4,
            seed: 5,
        };
        let curve = run(params);
        assert_eq!(curve.random_mpkis.len(), 4);
        // Sorted descending.
        for pair in curve.random_mpkis.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        // MIN lower-bounds everything else.
        assert!(curve.min_mpki <= curve.lru_mpki);
        assert!(curve.min_mpki <= curve.hillclimbed_mpki + 1e-9);
        // Hill climbing starts from the best random set and cannot worsen.
        assert!(curve.hillclimbed_mpki <= *curve.random_mpkis.last().expect("nonempty") + 1e-9);
    }
}
