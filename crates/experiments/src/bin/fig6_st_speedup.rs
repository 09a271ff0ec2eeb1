//! Figures 6 and 7: single-thread speedup over LRU and MPKI per
//! benchmark (Fig. 7 plots MPKI on a log scale in the paper). Both
//! figures come from one run of the single-thread matrix.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin fig6_st_speedup --
//! [--warmup N] [--measure N] [--workloads N] [--cv 0|1|true|false] [--seed N] [--threads N]
//! [--metrics] [--manifest-dir DIR]`
//!
//! Each workload's LLC-bound stream is recorded once and replayed into
//! every policy (bit-identical to full simulation). `--metrics`
//! additionally writes a schema-versioned JSONL run manifest (per-cell
//! IPC/MPKI, phase timings, runtime counters) under `--manifest-dir`.
//!
//! `--bless` regenerates the reduced-scale golden matrix at
//! `results/fig6_golden.txt` (checked by the `golden` test) and
//! `--golden-check` re-renders it and exits nonzero on drift (that
//! test's check from the command line).

use std::process::ExitCode;

use mrp_experiments::output::pct;
use mrp_experiments::single_thread::{self, StMatrix};
use mrp_experiments::{finish_manifest, golden, Args, RunScale, TextSink};
use mrp_obs::Json;

fn main() -> ExitCode {
    let args = Args::parse_known(&[
        "warmup",
        "measure",
        "seed",
        "workloads",
        "cv",
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
        "fig6_st_speedup",
        "fig6_golden.txt",
        golden::FIG6_SEED,
        golden::fig6_golden,
    ) {
        return code;
    }
    let scale = args.run_scale(RunScale::single_thread());
    let mut manifest = args.init_metrics("fig6_st_speedup", scale.seed);
    let workloads = args.get_usize("workloads", 33);
    let cv = args.get_flag("cv", false);

    eprintln!("fig6: running {workloads} workloads, warmup {} / measure {} instructions (cv={cv}, {threads} threads)", scale.warmup, scale.measure);
    let matrix = single_thread::run(scale, workloads, cv);
    let names = StMatrix::POLICY_NAMES;

    // Scoped so the report phase lands in the manifest's phase snapshot.
    let report_phase = mrp_obs::phase("report");
    let mut sink = TextSink::stdout();
    sink.comment("# Fig. 6: speedup over LRU per benchmark");
    let header: Vec<&str> = ["benchmark", "LRU ipc"].into_iter().chain(names).collect();
    let mut rows: Vec<Vec<String>> = matrix
        .rows
        .iter()
        .map(|r| {
            let speedups = names.map(|n| format!("{:.3}x", r.speedup(n)));
            [r.workload.clone(), format!("{:.3}", r.lru_ipc)]
                .into_iter()
                .chain(speedups)
                .collect()
        })
        .collect();
    // Sort by MPPPB speedup, as the figure does.
    rows.sort_by(|a, b| a[4].partial_cmp(&b[4]).expect("finite"));
    sink.table(&header, &rows);

    sink.comment("geometric mean speedup over LRU (paper: Hawkeye +5.1%, Perceptron +6.3%, MPPPB +9.0%, MIN +13.6%):");
    for n in names {
        let g = matrix.geomean_speedup(n);
        sink.scalar(&format!("geomean_speedup.{n}"), &pct(g));
    }

    sink.comment("# Fig. 7: LLC MPKI per benchmark");
    let header: Vec<&str> = ["benchmark", "LRU"].into_iter().chain(names).collect();
    let rows: Vec<Vec<String>> = matrix
        .rows
        .iter()
        .map(|r| {
            let mpkis = names.map(|n| format!("{:.2}", r.mpki(n)));
            [r.workload.clone(), format!("{:.2}", r.lru_mpki)]
                .into_iter()
                .chain(mpkis)
                .collect()
        })
        .collect();
    sink.table(&header, &rows);

    sink.comment("mean MPKI (paper: Hawkeye 3.8, Perceptron 3.7, MPPPB 3.5):");
    let mpki_names = || std::iter::once("LRU").chain(names);
    for n in mpki_names() {
        let mean = matrix.mean_mpki(n);
        sink.scalar(&format!("mean_mpki.{n}"), &format!("{mean:.2}"));
    }

    if let Some(m) = manifest.as_mut() {
        m.meta("threads", Json::U64(threads as u64));
        m.meta("cv", Json::Bool(cv));
        for r in &matrix.rows {
            m.cell(
                &r.workload,
                "LRU",
                &[("ipc", r.lru_ipc), ("mpki", r.lru_mpki)],
            );
            for (name, ipc, mpki) in &r.policies {
                m.cell(
                    &r.workload,
                    name,
                    &[("ipc", *ipc), ("mpki", *mpki), ("speedup", ipc / r.lru_ipc)],
                );
            }
        }
        for n in names {
            m.scalar(&format!("geomean_speedup.{n}"), matrix.geomean_speedup(n));
        }
        for n in mpki_names() {
            m.scalar(&format!("mean_mpki.{n}"), matrix.mean_mpki(n));
        }
    }
    drop(report_phase);
    finish_manifest(manifest);
    ExitCode::SUCCESS
}
