//! Predictor accuracy demo: a small ROC comparison of SDBP, Perceptron,
//! and multiperspective prediction (the paper's Figures 1/8 in miniature).
//!
//! Run with: `cargo run -p mrp-experiments --release --example roc_curve`

use mrp_experiments::{roc, RunScale};

fn main() {
    let scale = RunScale::single_thread().warmup(500_000).measure(3_000_000);
    println!("measuring reuse-predictor accuracy on 8 workloads (measure-only mode)...");
    let curves = roc::run(scale, 8);

    for curve in &curves {
        println!("\n{} — selected operating points:", curve.predictor);
        println!("  {:>10} {:>8} {:>8}", "threshold", "FPR", "TPR");
        for &(t, fpr, tpr) in curve
            .points
            .iter()
            .filter(|(_, f, _)| *f > 0.02 && *f < 0.9)
        {
            // Print a sparse selection.
            if t % 16 == 0 || curve.predictor == "SDBP" {
                println!("  {t:>10} {fpr:>8.3} {tpr:>8.3}");
            }
        }
    }

    println!("\nTPR at the bypass-relevant FPR of ~0.28 (higher is better):");
    for curve in &curves {
        println!("  {:<18} {:.3}", curve.predictor, curve.tpr_at_fpr(0.28));
    }
    println!("(the paper's Fig 8(b): multiperspective dominates in the 0.25-0.31 region)");
}
