//! Figure 4: normalized weighted speedup S-curves for 4-core mixes.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin fig4_mp_speedup --
//! [--warmup N] [--measure N] [--mixes N] [--seed N] [--threads N]
//! [--metrics] [--manifest-dir DIR]`
//!
//! `--bless` regenerates the reduced-scale golden matrix at
//! `results/fig4_golden.txt` (checked by the `golden_tables` test; it
//! pins the `multi::run` path Fig. 5 shares) and `--golden-check`
//! re-renders it and exits nonzero on drift (that test's check from the
//! command line).

use std::process::ExitCode;

use mrp_experiments::multi;
use mrp_experiments::output::{pct, series_points};
use mrp_experiments::{finish_manifest, golden, Args, RunScale, TextSink};
use mrp_obs::Json;

fn main() -> ExitCode {
    let args = Args::parse_known(&[
        "warmup",
        "measure",
        "seed",
        "mixes",
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
        "fig4_mp_speedup",
        "fig4_golden.txt",
        golden::FIG4_SEED,
        golden::fig4_golden,
    ) {
        return code;
    }
    let scale = args.run_scale(RunScale::multi_core());
    let mut manifest = args.init_metrics("fig4_mp_speedup", scale.seed);
    let mixes = args.get_usize("mixes", 32);

    eprintln!("fig4: running {mixes} 4-core mixes (test set, after 16 training mixes) on {threads} threads");
    let matrix = multi::run(scale, mixes, 16);

    let report_phase = mrp_obs::phase("report");
    let mut sink = TextSink::stdout();
    for name in &matrix.policy_names {
        sink.series(name, &series_points(matrix.speedups(name), true, 30));
    }

    sink.comment("geometric mean weighted speedup over LRU (paper: Hawkeye +5.2%, Perceptron +5.8%, MPPPB +8.3%):");
    for name in &matrix.policy_names {
        let g = matrix.geomean_speedup(name);
        sink.scalar(
            &format!("geomean_speedup.{name}"),
            &format!(
                "{}   (below LRU on {}/{} mixes)",
                pct(g),
                matrix.below_lru(name),
                matrix.rows.len()
            ),
        );
    }

    if let Some(m) = manifest.as_mut() {
        m.meta("threads", Json::U64(threads as u64));
        m.meta("mixes", Json::U64(matrix.rows.len() as u64));
        for r in &matrix.rows {
            for (name, speedup) in &r.speedups {
                m.cell(&r.label, name, &[("weighted_speedup", *speedup)]);
            }
        }
        for name in &matrix.policy_names {
            m.scalar(
                &format!("geomean_speedup.{name}"),
                matrix.geomean_speedup(name),
            );
            m.scalar(&format!("below_lru.{name}"), matrix.below_lru(name) as f64);
        }
    }
    drop(report_phase);
    finish_manifest(manifest);
    ExitCode::SUCCESS
}
