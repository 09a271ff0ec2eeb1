//! Four programs sharing an 8MB LLC: weighted speedup of Perceptron and
//! MPPPB over LRU on one multi-programmed mix (the paper's Figure 4
//! setting, one point).
//!
//! Run with: `cargo run -p mrp-experiments --release --example multicore_mix -- [--mix N]`

use mrp_cache::HierarchyConfig;
use mrp_experiments::runner::run_mixes;
use mrp_experiments::{Args, PolicyKind, RunScale};
use mrp_trace::{workloads, MixBuilder};

fn main() {
    let args = Args::parse_known(&["mix"]);
    let mix_index = args.get_usize("mix", 0);
    let mix = MixBuilder::new(42).mix(100 + mix_index);
    println!("mix {}: {}", mix_index, mix.label());

    let scale = RunScale::multi_core()
        .warmup(1_000_000)
        .measure(4_000_000)
        .seed(mix.seed());
    let llc = HierarchyConfig::multi_core().llc;
    let columns = [PolicyKind::Perceptron, PolicyKind::MpppbMulti];
    let run = run_mixes(scale, std::slice::from_ref(&mix), &columns, |k| {
        k.build(&llc)
    });

    let suite = workloads::suite();
    for (id, ipc) in &run.standalone {
        println!(
            "standalone IPC (8MB LLC, LRU) {:<16} {ipc:.3}",
            suite[id.0].name()
        );
    }
    let names = std::iter::once(PolicyKind::Lru)
        .chain(columns)
        .map(|k| k.name());
    for (name, cell) in names.zip(&run.rows[0]) {
        println!(
            "{name:<12} weighted speedup over LRU {:.3}  aggregate MPKI {:>6.2}",
            cell.speedup, cell.mpki
        );
    }
}
