//! Figure 5: MPKI S-curves for 4-core mixes (log-scale y in the paper).
//!
//! Usage: `cargo run -p mrp-experiments --release --bin fig5_mp_mpki --
//! [--warmup N] [--measure N] [--mixes N] [--seed N] [--threads N]
//! [--metrics] [--manifest-dir DIR]`

use mrp_experiments::multi;
use mrp_experiments::output::series_points;
use mrp_experiments::{finish_manifest, Args, RunScale, TextSink};
use mrp_obs::Json;

fn main() {
    let args = Args::parse_known(&[
        "warmup",
        "measure",
        "seed",
        "mixes",
        "threads",
        "no-simd",
        "metrics",
        "manifest-dir",
    ]);
    let threads = args.init_runtime_options();
    let scale = args.run_scale(RunScale::multi_core());
    let mut manifest = args.init_metrics("fig5_mp_mpki", scale.seed);
    let mixes = args.get_usize("mixes", 32);

    eprintln!("fig5: running {mixes} 4-core mixes on {threads} threads");
    let matrix = multi::run(scale, mixes, 16);

    let report_phase = mrp_obs::phase("report");
    let mut sink = TextSink::stdout();
    sink.series("LRU", &series_points(matrix.mpkis("LRU"), false, 30));
    for name in &matrix.policy_names {
        sink.series(name, &series_points(matrix.mpkis(name), false, 30));
    }

    sink.comment(
        "arithmetic mean MPKI (paper: LRU 14.1, Perceptron 12.49, Hawkeye 11.72, MPPPB 10.97):",
    );
    let lru_mean = matrix.mean_mpki("LRU");
    sink.scalar("mean_mpki.LRU", &format!("{lru_mean:.2}"));
    for name in &matrix.policy_names {
        let mean = matrix.mean_mpki(name);
        sink.scalar(&format!("mean_mpki.{name}"), &format!("{mean:.2}"));
    }

    if let Some(m) = manifest.as_mut() {
        m.meta("threads", Json::U64(threads as u64));
        m.meta("mixes", Json::U64(matrix.rows.len() as u64));
        for r in &matrix.rows {
            for (name, mpki) in &r.mpkis {
                m.cell(&r.label, name, &[("mpki", *mpki)]);
            }
        }
        m.scalar("mean_mpki.LRU", lru_mean);
        for name in &matrix.policy_names {
            m.scalar(&format!("mean_mpki.{name}"), matrix.mean_mpki(name));
        }
    }
    drop(report_phase);
    finish_manifest(manifest);
}
