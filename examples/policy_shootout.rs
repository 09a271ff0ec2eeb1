//! Policy shootout: every registered LLC policy, then Belady MIN, on one
//! workload.
//!
//! Run with: `cargo run -p mrp-experiments --release --example policy_shootout --
//! [--workload name] [--warmup N] [--measure N]`

use mrp_cache::CacheConfig;
use mrp_experiments::runner::{record, run_single, run_single_min};
use mrp_experiments::{Args, PolicyKind, RunScale};
use mrp_trace::workloads;

fn main() {
    let args = Args::parse_known(&["workload", "warmup", "measure"]);
    let name = args.get_str("workload", "zipf.hot");
    let workload = workloads::suite()
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("unknown workload {name}; see mrp_trace::workloads::suite()"));
    println!("workload: {} — {}", workload.name(), workload.description());

    let scale = RunScale::single_thread()
        .warmup(args.get_u64("warmup", 1_000_000))
        .measure(args.get_u64("measure", 5_000_000));
    let rec = record(&workload, scale);
    let llc = CacheConfig::llc_single();

    println!(
        "{:<16} {:>8} {:>8} {:>10}",
        "policy", "IPC", "MPKI", "bypasses"
    );
    let rows = PolicyKind::ALL
        .iter()
        .map(|kind| (kind.key(), run_single(&rec, kind.build(&llc))))
        .chain(std::iter::once_with(|| ("min", run_single_min(&rec))));
    for (key, r) in rows {
        println!(
            "{key:<16} {:>8.3} {:>8.2} {:>10}",
            r.ipc, r.mpki, r.stats.llc.bypasses
        );
    }
}
