//! Figure 10: performance impact of removing each feature.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin fig10_ablation --
//! [--warmup N] [--measure N] [--mixes N] [--features N] [--seed N] [--threads N]
//! [--metrics] [--manifest-dir DIR]`
//!
//! The standalone-IPC baseline replays each workload's shared recording;
//! mix runs are simulated in full.
//!
//! `--bless` regenerates the reduced-scale golden matrix at
//! `results/fig10_golden.txt` (checked by the `golden_tables` test)
//! instead of running the full study; `--golden-check` re-renders it
//! and exits nonzero on drift (that test's check from the command line).

use std::process::ExitCode;

use mrp_experiments::ablation;
use mrp_experiments::output::pct;
use mrp_experiments::{finish_manifest, golden, Args, RunScale, TextSink};
use mrp_obs::Json;

fn main() -> ExitCode {
    let args = Args::parse_known(&[
        "warmup",
        "measure",
        "seed",
        "mixes",
        "features",
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
        "fig10_ablation",
        "fig10_golden.txt",
        golden::ABLATION_SEED,
        golden::ablation_golden,
    ) {
        return code;
    }
    let scale = args.run_scale(RunScale::multi_core().warmup(1_000_000).measure(5_000_000));
    let mut manifest = args.init_metrics("fig10_ablation", scale.seed);
    let mixes = args.get_usize("mixes", 12);
    let features = args.get_usize("features", 16);

    eprintln!("fig10: leave-one-out over {features} features x {mixes} mixes on {threads} threads");
    let result = ablation::run(scale, mixes, features);

    let report_phase = mrp_obs::phase("report");
    let mut sink = TextSink::stdout();
    sink.comment("Fig 10: geomean weighted speedup with each Table 1(a) feature omitted");
    let rows: Vec<Vec<String>> = std::iter::once(vec![
        "(original)".to_string(),
        pct(result.original),
        "full set".to_string(),
    ])
    .chain(result.omitted.iter().map(|(feature, speedup)| {
        let marker = if *speedup > result.original {
            "removal helps"
        } else {
            ""
        };
        vec![feature.clone(), pct(*speedup), marker.to_string()]
    }))
    .collect();
    sink.table(&["feature omitted", "speedup", "note"], &rows);

    let (best_feature, best_speedup) = result.most_valuable();
    sink.comment(&format!(
        "most valuable feature: {best_feature} (speedup drops to {} without it; paper: offset(15,1,6,1), 8.0% -> 7.6%)",
        pct(*best_speedup)
    ));
    sink.scalar("speedup.original", &pct(result.original));

    if let Some(m) = manifest.as_mut() {
        m.meta("threads", Json::U64(threads as u64));
        m.meta("mixes", Json::U64(mixes as u64));
        m.meta("features", Json::U64(features as u64));
        m.meta("most_valuable", Json::Str(best_feature.clone()));
        for (feature, speedup) in &result.omitted {
            m.cell(
                "geomean",
                &format!("omit:{feature}"),
                &[("speedup", *speedup)],
            );
        }
        m.scalar("speedup.original", result.original);
    }
    drop(report_phase);
    finish_manifest(manifest);
    ExitCode::SUCCESS
}
