//! Figure 9: performance impact of uniform feature associativity.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin fig9_assoc --
//! [--warmup N] [--measure N] [--mixes N] [--step N] [--seed N] [--threads N]
//! [--format text|tsv|jsonl] [--metrics] [--manifest-dir DIR]`
//!
//! The standalone-IPC baseline replays each workload's shared recording;
//! mix runs are simulated in full.

use mrp_experiments::assoc_sweep;
use mrp_experiments::output::pct;
use mrp_experiments::{finish_manifest, Args, RunScale};
use mrp_obs::Json;

fn main() {
    let args = Args::parse();
    let threads = args.init_runtime_options();
    let scale = args.run_scale(RunScale::multi_core().warmup(1_000_000).measure(5_000_000));
    let mut manifest = args.init_metrics("fig9_assoc", scale.seed);
    let mixes = args.get_usize("mixes", 12);
    let step = args.get_usize("step", 1);

    eprintln!("fig9: sweeping uniform associativity over {mixes} mixes (A step {step}, {threads} threads)");
    let sweep = assoc_sweep::run(scale, mixes, step);

    let report_phase = mrp_obs::phase("report");
    let mut sink = args.report_sink();
    sink.comment("Fig 9: geomean weighted speedup vs uniform feature associativity");
    sink.comment("paper: A=1 -> +6.4%, A=18 -> +7.8%, variable (original) -> +8.0%");
    let rows: Vec<Vec<String>> = sweep
        .uniform
        .iter()
        .map(|(a, s)| vec![a.to_string(), pct(*s)])
        .chain(std::iter::once(vec![
            "orig (variable)".to_string(),
            pct(sweep.original),
        ]))
        .collect();
    sink.table("fig9_assoc", &["A", "speedup"], &rows);
    sink.scalar("speedup.original", sweep.original, &pct(sweep.original));

    if let Some(m) = manifest.as_mut() {
        m.meta("threads", Json::U64(threads as u64));
        m.meta("mixes", Json::U64(mixes as u64));
        m.meta("step", Json::U64(step as u64));
        for (a, s) in &sweep.uniform {
            m.cell(&format!("A={a}"), "uniform", &[("speedup", *s)]);
        }
        m.scalar("speedup.original", sweep.original);
    }
    drop(report_phase);
    finish_manifest(manifest);
}
