//! Figure 9: performance impact of uniform feature associativity.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin fig9_assoc --
//! [--warmup N] [--measure N] [--mixes N] [--step N] [--seed N] [--threads N]
//! [--metrics] [--manifest-dir DIR]`
//!
//! The standalone-IPC baseline replays each workload's shared recording;
//! mix runs are simulated in full.
//!
//! `--bless` regenerates the reduced-scale golden at
//! `results/fig9_golden.txt` (checked by the `golden_tables` test) and
//! `--golden-check` re-renders it and exits nonzero on drift (that
//! test's check from the command line).

use std::process::ExitCode;

use mrp_experiments::assoc_sweep;
use mrp_experiments::output::pct;
use mrp_experiments::{finish_manifest, golden, Args, RunScale, TextSink};
use mrp_obs::Json;

fn main() -> ExitCode {
    let args = Args::parse_known(&[
        "warmup",
        "measure",
        "seed",
        "mixes",
        "step",
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
        "fig9_assoc",
        "fig9_golden.txt",
        golden::FIG9_SEED,
        golden::fig9_golden,
    ) {
        return code;
    }
    let scale = args.run_scale(RunScale::multi_core().warmup(1_000_000).measure(5_000_000));
    let mut manifest = args.init_metrics("fig9_assoc", scale.seed);
    let mixes = args.get_usize("mixes", 12);
    let step = args.get_usize("step", 1);

    eprintln!("fig9: sweeping uniform associativity over {mixes} mixes (A step {step}, {threads} threads)");
    let sweep = assoc_sweep::run(scale, mixes, step);

    let report_phase = mrp_obs::phase("report");
    let mut sink = TextSink::stdout();
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
    sink.table(&["A", "speedup"], &rows);
    sink.scalar("speedup.original", &pct(sweep.original));

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
    ExitCode::SUCCESS
}
