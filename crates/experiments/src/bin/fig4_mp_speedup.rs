//! Figures 4 and 5: normalized weighted speedup and MPKI S-curves for
//! 4-core mixes (Fig. 5 plots MPKI on a log-scale y in the paper). Both
//! figures come from one run of the mix matrix.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin fig4_mp_speedup --
//! [--warmup N] [--measure N] [--mixes N] [--seed N] [--threads N]
//! [--metrics] [--manifest-dir DIR]`
//!
//! `--bless` regenerates the reduced-scale golden matrix at
//! `results/fig4_golden.txt` (checked by the `golden_tables` test; it
//! pins the `multi::run` path both figures read) and `--golden-check`
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
    sink.comment("# Fig. 4: normalized weighted speedup over LRU per mix");
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

    sink.comment("# Fig. 5: LLC MPKI per mix");
    let mpki_names =
        || std::iter::once("LRU").chain(matrix.policy_names.iter().map(String::as_str));
    for name in mpki_names() {
        sink.series(name, &series_points(matrix.mpkis(name), false, 30));
    }
    sink.comment(
        "arithmetic mean MPKI (paper: LRU 14.1, Perceptron 12.49, Hawkeye 11.72, MPPPB 10.97):",
    );
    for name in mpki_names() {
        let mean = matrix.mean_mpki(name);
        sink.scalar(&format!("mean_mpki.{name}"), &format!("{mean:.2}"));
    }

    if let Some(m) = manifest.as_mut() {
        m.meta("threads", Json::U64(threads as u64));
        m.meta("mixes", Json::U64(matrix.rows.len() as u64));
        for r in &matrix.rows {
            // `mpkis` is LRU's, then the policies' in `speedups` order.
            m.cell(&r.label, "LRU", &[("mpki", r.mpkis[0].1)]);
            for ((name, speedup), (_, mpki)) in r.speedups.iter().zip(&r.mpkis[1..]) {
                m.cell(
                    &r.label,
                    name,
                    &[("weighted_speedup", *speedup), ("mpki", *mpki)],
                );
            }
        }
        for name in &matrix.policy_names {
            m.scalar(
                &format!("geomean_speedup.{name}"),
                matrix.geomean_speedup(name),
            );
            m.scalar(&format!("below_lru.{name}"), matrix.below_lru(name) as f64);
        }
        for name in mpki_names() {
            m.scalar(&format!("mean_mpki.{name}"), matrix.mean_mpki(name));
        }
    }
    drop(report_phase);
    finish_manifest(manifest);
    ExitCode::SUCCESS
}
