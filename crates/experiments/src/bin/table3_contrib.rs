//! Table 3: per-workload feature contributions.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin table3_contrib --
//! [--workloads N] [--instructions N] [--seed N] [--threads N]
//! [--metrics] [--manifest-dir DIR]`
//!
//! `--bless` regenerates the reduced-scale golden matrix at
//! `results/table3_golden.txt` (checked by the `golden_tables` test)
//! instead of running the full study; `--golden-check` re-renders it
//! and exits nonzero on drift (that test's check from the command line).

use std::process::ExitCode;

use mrp_experiments::feature_table;
use mrp_experiments::{finish_manifest, golden, Args, TextSink};
use mrp_obs::Json;

fn main() -> ExitCode {
    let args = Args::parse_known(&[
        "workloads",
        "instructions",
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
        "table3_contrib",
        "table3_golden.txt",
        golden::TABLE3_SEED,
        golden::table3_golden,
    ) {
        return code;
    }
    let workloads = args.get_usize("workloads", 33);
    let instructions = args.get_u64("instructions", 3_000_000);
    // A fresh seed so traces differ from every tuning run, mirroring the
    // paper's use of SPEC CPU 2017 as an untouched testing set.
    let seed = args.get_u64("seed", 2017);
    let mut manifest = args.init_metrics("table3_contrib", seed);

    eprintln!("table3: leave-one-out over 16 features x {workloads} workloads ({threads} threads)");
    let rows = feature_table::run(workloads, instructions, seed);

    let report_phase = mrp_obs::phase("report");
    let mut sink = TextSink::stdout();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.feature.clone(),
                format!("{:.2}", r.mpki_without),
                format!("{:.2}", r.mpki_with),
                format!("{:.2}%", r.percent_increase),
            ]
        })
        .collect();
    sink.table(
        &["workload", "feature", "MPKI w/o", "MPKI with", "increase"],
        &rendered,
    );
    sink.comment("paper's headline row: pc(15,14,32,6,0) improves an mcf simpoint by 18.88%");

    if let Some(m) = manifest.as_mut() {
        m.meta("threads", Json::U64(threads as u64));
        m.meta("workloads", Json::U64(workloads as u64));
        m.meta("instructions", Json::U64(instructions));
        for r in &rows {
            m.cell(
                &r.workload,
                &r.feature,
                &[
                    ("mpki_without", r.mpki_without),
                    ("mpki_with", r.mpki_with),
                    ("percent_increase", r.percent_increase),
                ],
            );
        }
    }
    drop(report_phase);
    finish_manifest(manifest);
    ExitCode::SUCCESS
}
