//! Development diagnostic: timing-level (IPC) comparison of MPPPB
//! operating points on the policy-sensitive workloads, against the
//! Perceptron reference.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin dev_timing_check --
//! [--threads N] [--metrics] [--manifest-dir DIR]`

use mrp_cache::HierarchyConfig;
use mrp_core::mpppb::MpppbConfig;
use mrp_core::AdaptiveMpppb;
use mrp_cpu::SingleCoreSim;
use mrp_experiments::runner::run_single_kind;
use mrp_experiments::{finish_manifest, Args, PolicyKind, RunScale};
use mrp_trace::workloads;

fn main() {
    let args = Args::parse();
    args.init_runtime_options();
    let scale = RunScale::single_thread()
        .warmup(args.get_u64("warmup", 600_000))
        .measure(args.get_u64("measure", 2_500_000));
    let mut manifest = args.init_metrics("dev_timing_check", scale.seed);
    let names = [
        "scanhot.protect",
        "loop.edge",
        "spmv.fit",
        "mm.naive",
        "sat.clauses",
        "chase.2m",
    ];
    let suite = workloads::suite();

    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload", "LRU", "Perc", "rawA", "A+guard", "cv+g"
    );
    let mut geo = [0.0f64; 4];
    for name in names {
        let w = suite.iter().find(|w| w.name() == name).expect("workload");
        let lru = run_single_kind(w, PolicyKind::Lru, scale);
        let perc = run_single_kind(w, PolicyKind::Perceptron, scale);

        let config = HierarchyConfig::single_thread();
        let raw_a = {
            let mut sim = SingleCoreSim::new(
                config,
                Box::new(mrp_core::Mpppb::new(
                    MpppbConfig::single_thread(&config.llc),
                    &config.llc,
                )),
                w.trace(1),
            );
            sim.run(scale.warmup, scale.measure)
        };
        let a_guard = {
            let mut sim = SingleCoreSim::new(
                config,
                Box::new(AdaptiveMpppb::new(
                    MpppbConfig::single_thread(&config.llc),
                    &config.llc,
                )),
                w.trace(1),
            );
            sim.run(scale.warmup, scale.measure)
        };
        let cv_guard = {
            let mut sim = SingleCoreSim::new(
                config,
                mrp_experiments::runner::mpppb_cv_policy(w),
                w.trace(1),
            );
            sim.run(scale.warmup, scale.measure)
        };

        let speedups = [
            perc.ipc / lru.ipc,
            raw_a.ipc / lru.ipc,
            a_guard.ipc / lru.ipc,
            cv_guard.ipc / lru.ipc,
        ];
        for (g, s) in geo.iter_mut().zip(speedups) {
            *g += s.ln();
        }
        println!(
            "{:<18} {:>8.3} {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x",
            name, lru.ipc, speedups[0], speedups[1], speedups[2], speedups[3]
        );
        if let Some(m) = manifest.as_mut() {
            m.cell(name, "Perceptron", &[("speedup", speedups[0])]);
            m.cell(name, "MPPPB(raw-A)", &[("speedup", speedups[1])]);
            m.cell(name, "MPPPB(A+guard)", &[("speedup", speedups[2])]);
            m.cell(name, "MPPPB(cv+guard)", &[("speedup", speedups[3])]);
        }
    }
    let n = names.len() as f64;
    println!(
        "{:<18} {:>8} {:>7.3}x {:>7.3}x {:>7.3}x {:>7.3}x",
        "geomean(these)",
        "",
        (geo[0] / n).exp(),
        (geo[1] / n).exp(),
        (geo[2] / n).exp(),
        (geo[3] / n).exp()
    );
    if let Some(m) = manifest.as_mut() {
        m.scalar("geomean.Perceptron", (geo[0] / n).exp());
        m.scalar("geomean.MPPPB(raw-A)", (geo[1] / n).exp());
        m.scalar("geomean.MPPPB(A+guard)", (geo[2] / n).exp());
        m.scalar("geomean.MPPPB(cv+guard)", (geo[3] / n).exp());
    }
    finish_manifest(manifest);
}
