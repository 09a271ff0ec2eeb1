//! Policy shootout: every implemented LLC policy on one workload.
//!
//! Run with: `cargo run -p mrp-experiments --release --example policy_shootout -- [--workload name]`

use mrp_experiments::runner::{run_single_hawkeye, run_single_kind, run_single_min};
use mrp_experiments::{Args, PolicyKind, RunScale};
use mrp_trace::workloads;

fn main() {
    let args = Args::parse();
    let name = args.get_str("workload", "zipf.hot");
    let workload = workloads::suite()
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("unknown workload {name}; see mrp_trace::workloads::suite()"));
    println!("workload: {} — {}", workload.name(), workload.description());

    let scale = RunScale::single_thread()
        .warmup(args.get_u64("warmup", 1_000_000))
        .measure(args.get_u64("measure", 5_000_000));

    println!(
        "{:<12} {:>8} {:>8} {:>10}",
        "policy", "IPC", "MPKI", "bypasses"
    );
    let kinds = [
        PolicyKind::Random,
        PolicyKind::Lru,
        PolicyKind::TreePlru,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Mdpp,
        PolicyKind::Ship,
        PolicyKind::Sdbp,
        PolicyKind::Perceptron,
        PolicyKind::MpppbSingle,
        PolicyKind::MpppbAdaptive,
    ];
    for kind in kinds {
        let r = run_single_kind(&workload, kind, scale);
        println!(
            "{:<12} {:>8.3} {:>8.2} {:>10}",
            kind.name(),
            r.ipc,
            r.mpki,
            r.stats.llc.bypasses
        );
    }
    let hawkeye = run_single_hawkeye(&workload, scale);
    println!(
        "{:<12} {:>8.3} {:>8.2} {:>10}",
        "Hawkeye", hawkeye.ipc, hawkeye.mpki, hawkeye.stats.llc.bypasses
    );
    let min = run_single_min(&workload, scale);
    println!(
        "{:<12} {:>8.3} {:>8.2} {:>10}",
        "MIN", min.ipc, min.mpki, min.stats.llc.bypasses
    );
}
