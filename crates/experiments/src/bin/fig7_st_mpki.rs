//! Figure 7: single-thread MPKI per benchmark (log scale in the paper).
//!
//! Usage: `cargo run -p mrp-experiments --release --bin fig7_st_mpki --
//! [--warmup N] [--measure N] [--workloads N] [--min 0|1|true|false] [--seed N] [--threads N]
//! [--metrics] [--manifest-dir DIR]`
//!
//! Each workload's LLC-bound stream is recorded once and replayed into
//! every policy (bit-identical to full simulation). `--metrics` writes a
//! JSONL run manifest under `--manifest-dir`.

use mrp_experiments::{finish_manifest, single_thread, Args, RunScale, TextSink};
use mrp_obs::Json;

fn main() {
    let args = Args::parse_known(&[
        "warmup",
        "measure",
        "seed",
        "workloads",
        "min",
        "cv",
        "threads",
        "no-simd",
        "metrics",
        "manifest-dir",
    ]);
    let threads = args.init_runtime_options();
    let scale = args.run_scale(RunScale::single_thread());
    let mut manifest = args.init_metrics("fig7_st_mpki", scale.seed);
    let workloads = args.get_usize("workloads", 33);
    let include_min = args.get_flag("min", true);
    let cv = args.get_flag("cv", false);

    eprintln!("fig7: running {workloads} workloads (cv={cv}, {threads} threads)");
    let matrix = if cv {
        single_thread::run_cv(scale, workloads, include_min)
    } else {
        single_thread::run(scale, workloads, include_min)
    };

    let report_phase = mrp_obs::phase("report");
    let mut sink = TextSink::stdout();
    let mut header = vec!["benchmark", "LRU"];
    for n in &matrix.policy_names {
        header.push(n);
    }
    let rows: Vec<Vec<String>> = matrix
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.workload.clone(), format!("{:.2}", r.lru_mpki)];
            for n in &matrix.policy_names {
                row.push(format!("{:.2}", r.mpki(n)));
            }
            row
        })
        .collect();
    sink.table(&header, &rows);

    sink.comment("mean MPKI (paper: Hawkeye 3.8, Perceptron 3.7, MPPPB 3.5):");
    let lru_mean = matrix.mean_mpki("LRU");
    sink.scalar("mean_mpki.LRU", &format!("{lru_mean:.2}"));
    for n in &matrix.policy_names {
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
                m.cell(&r.workload, name, &[("ipc", *ipc), ("mpki", *mpki)]);
            }
        }
        m.scalar("mean_mpki.LRU", lru_mean);
        for n in &matrix.policy_names {
            m.scalar(&format!("mean_mpki.{n}"), matrix.mean_mpki(n));
        }
    }
    drop(report_phase);
    finish_manifest(manifest);
}
