//! Figure 3: random feature-set search distribution + hill climbing.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin fig3_search --
//! [--candidates N] [--workloads N] [--instructions N] [--moves N] [--seed N] [--threads N]
//! [--metrics] [--manifest-dir DIR]`
//!
//! `--bless` regenerates the reduced-scale golden at
//! `results/fig3_golden.txt` (checked by the `golden_tables` test) and
//! `--golden-check` re-renders it and exits nonzero on drift (that
//! test's check from the command line).

use std::process::ExitCode;

use mrp_experiments::output::series_points;
use mrp_experiments::search_curve::{self, SearchParams};
use mrp_experiments::{finish_manifest, golden, Args, TextSink};
use mrp_obs::Json;

fn main() -> ExitCode {
    let args = Args::parse_known(&[
        "candidates",
        "workloads",
        "instructions",
        "moves",
        "seed",
        "threads",
        "no-simd",
        "metrics",
        "manifest-dir",
        "bless",
        "golden-check",
    ]);
    let threads = args.init_runtime_options();
    if let Some(code) = golden::golden_mode(
        &args,
        "fig3_search",
        "fig3_golden.txt",
        golden::FIG3_SEED,
        golden::fig3_golden,
    ) {
        return code;
    }
    let params = SearchParams {
        candidates: args.get_usize("candidates", 80),
        workload_count: args.get_usize("workloads", 10),
        instructions: args.get_u64("instructions", 2_000_000),
        patience: 20,
        max_moves: args.get_u64("moves", 150) as u32,
        seed: args.get_u64("seed", 17),
    };
    let mut manifest = args.init_metrics("fig3_search", params.seed);

    eprintln!(
        "fig3: evaluating {} random 16-feature sets on {} workloads ({threads} threads)",
        params.candidates, params.workload_count
    );
    let curve = search_curve::run(params);

    let report_phase = mrp_obs::phase("report");
    let mut sink = TextSink::stdout();
    sink.comment("Fig 3: feature sets sorted by MPKI (descending), with reference lines");
    sink.scalar("lru_mpki", &format!("{:.3}", curve.lru_mpki));
    sink.scalar("min_mpki", &format!("{:.3}", curve.min_mpki));
    sink.scalar(
        "hillclimbed_mpki",
        &format!(
            "{:.3}  ({} moves tried, {} accepted)",
            curve.hillclimbed_mpki, curve.hillclimb_moves.0, curve.hillclimb_moves.1
        ),
    );
    // Already sorted descending by the search; sample straight through.
    sink.series(
        "random_sets",
        &series_points(curve.random_mpkis.clone(), false, 40),
    );

    let best_random = *curve.random_mpkis.last().expect("candidates nonempty");
    let worst_random = *curve.random_mpkis.first().expect("nonempty");
    sink.comment("paper shape: random sets range from worse-than-LRU to roughly halfway LRU->MIN;");
    sink.comment("hill climbing adds a little on top of the best random set.");
    sink.scalar("best_random", &format!("{best_random:.3}"));
    sink.scalar("worst_random", &format!("{worst_random:.3}"));

    if let Some(m) = manifest.as_mut() {
        m.meta("threads", Json::U64(threads as u64));
        m.meta("candidates", Json::U64(curve.random_mpkis.len() as u64));
        m.meta(
            "hillclimb_moves_tried",
            Json::U64(curve.hillclimb_moves.0 as u64),
        );
        m.meta(
            "hillclimb_moves_accepted",
            Json::U64(curve.hillclimb_moves.1 as u64),
        );
        m.scalar("lru_mpki", curve.lru_mpki);
        m.scalar("min_mpki", curve.min_mpki);
        m.scalar("hillclimbed_mpki", curve.hillclimbed_mpki);
        m.scalar("best_random", best_random);
        m.scalar("worst_random", worst_random);
    }
    drop(report_phase);
    finish_manifest(manifest);
    ExitCode::SUCCESS
}
