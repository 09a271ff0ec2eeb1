//! Figures 1 and 8: ROC curves for SDBP, Perceptron, Multiperspective.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin fig_roc --
//! [--warmup N] [--measure N] [--workloads N] [--seed N] [--threads N]
//! [--metrics] [--manifest-dir DIR]`
//!
//! Each workload records once and every predictor probe replays the
//! shared stream.
//!
//! `--bless` regenerates the reduced-scale golden curves at
//! `results/fig_roc_golden.txt` (checked by the `golden_tables` test)
//! and `--golden-check` re-renders them and exits nonzero on drift (that
//! test's check from the command line).

use std::process::ExitCode;

use mrp_experiments::roc;
use mrp_experiments::{finish_manifest, golden, Args, RunScale, TextSink};
use mrp_obs::Json;

fn main() -> ExitCode {
    let args = Args::parse_known(&[
        "warmup",
        "measure",
        "seed",
        "workloads",
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
        "fig_roc",
        "fig_roc_golden.txt",
        golden::ROC_SEED,
        golden::roc_golden,
    ) {
        return code;
    }
    let scale = args.run_scale(
        RunScale::single_thread()
            .warmup(2_000_000)
            .measure(10_000_000),
    );
    let mut manifest = args.init_metrics("fig_roc", scale.seed);
    let workloads = args.get_usize("workloads", 33);

    eprintln!("fig_roc: measuring predictor accuracy on {workloads} workloads ({threads} threads)");
    let curves = roc::run(scale, workloads);

    let report_phase = mrp_obs::phase("report");
    let mut sink = TextSink::stdout();
    for curve in &curves {
        let rows: Vec<Vec<String>> = curve
            .points
            .iter()
            // Trim the flat tails for readability.
            .filter(|&&(_, fpr, _)| fpr > 0.001 && fpr < 0.999)
            .map(|&(t, fpr, tpr)| vec![t.to_string(), format!("{fpr:.4}"), format!("{tpr:.4}")])
            .collect();
        sink.table(&["threshold", "FPR", "TPR"], &rows);
    }

    sink.comment("Fig 8(b) inset: TPR in the bypass-relevant FPR region (paper: multiperspective dominates at 0.25-0.31)");
    let inset: Vec<Vec<String>> = curves
        .iter()
        .map(|curve| {
            vec![
                curve.predictor.clone(),
                format!("{:.3}", curve.tpr_at_fpr(0.25)),
                format!("{:.3}", curve.tpr_at_fpr(0.28)),
                format!("{:.3}", curve.tpr_at_fpr(0.31)),
            ]
        })
        .collect();
    sink.table(&["predictor", "TPR@0.25", "TPR@0.28", "TPR@0.31"], &inset);

    if let Some(m) = manifest.as_mut() {
        m.meta("threads", Json::U64(threads as u64));
        m.meta("workloads", Json::U64(workloads as u64));
        for curve in &curves {
            m.cell(
                "all",
                &curve.predictor,
                &[
                    ("tpr_at_fpr_0.25", curve.tpr_at_fpr(0.25)),
                    ("tpr_at_fpr_0.28", curve.tpr_at_fpr(0.28)),
                    ("tpr_at_fpr_0.31", curve.tpr_at_fpr(0.31)),
                ],
            );
        }
    }
    drop(report_phase);
    finish_manifest(manifest);
    ExitCode::SUCCESS
}
