//! Development diagnostic: ROC of the multiperspective machinery under
//! different feature sets, vs. the Perceptron baseline. If the machinery
//! is sound, the Perceptron-equivalent set should track the Perceptron
//! policy's curve; richer sets should beat it.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin dev_roc_check --
//! [--threads N] [--metrics] [--manifest-dir DIR]`

use mrp_core::feature_sets;
use mrp_experiments::roc;
use mrp_experiments::{finish_manifest, Args, RunScale};

fn main() {
    let args = Args::parse();
    args.init_runtime_options();
    let scale = args.run_scale(RunScale::single_thread().warmup(300_000).measure(1_500_000));
    let workloads = args.get_usize("workloads", 12);
    let mut manifest = args.init_metrics("dev_roc_check", scale.seed);

    let baseline = roc::run(scale, workloads);
    let like = roc::run_custom_features(
        scale,
        workloads,
        feature_sets::perceptron_like(),
        "MP(perceptron-like)",
    );
    let like_scaled = roc::run_custom_features_with(
        scale,
        workloads,
        feature_sets::perceptron_like(),
        160,
        45,
        "MP(p-like,160s,th45)",
    );
    let t1a_scaled = roc::run_custom_features_with(
        scale,
        workloads,
        feature_sets::table_1a(),
        160,
        45,
        "MP(t1a,160s,th45)",
    );
    let t1b = roc::run_custom_features(scale, workloads, feature_sets::table_1b(), "MP(table-1b)");

    println!(
        "{:<22} {:>10} {:>10} {:>10}",
        "predictor", "TPR@0.25", "TPR@0.28", "TPR@0.31"
    );
    for curve in baseline
        .iter()
        .chain([&like, &like_scaled, &t1a_scaled, &t1b])
    {
        println!(
            "{:<22} {:>10.3} {:>10.3} {:>10.3}",
            curve.predictor,
            curve.tpr_at_fpr(0.25),
            curve.tpr_at_fpr(0.28),
            curve.tpr_at_fpr(0.31)
        );
        if let Some(m) = manifest.as_mut() {
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
    finish_manifest(manifest);
}
