//! Four programs sharing an 8MB LLC: weighted speedup of MPPPB over LRU
//! on one multi-programmed mix (the paper's Figure 4 setting, one point).
//!
//! Run with: `cargo run -p mrp-experiments --release --example multicore_mix -- [--mix N]`

use mrp_cache::HierarchyConfig;
use mrp_cpu::MulticoreSim;
use mrp_experiments::runner::{mix_standalone, standalone_ipcs};
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
    let suite = workloads::suite();
    println!("computing standalone-LRU baselines for weighted speedup...");
    let standalone = standalone_ipcs(&suite, scale);
    let base = mix_standalone(&mix, &standalone);

    let config = HierarchyConfig::multi_core();
    for kind in [
        PolicyKind::Lru,
        PolicyKind::Perceptron,
        PolicyKind::MpppbMulti,
    ] {
        let mut sim = MulticoreSim::new(config, kind.build(&config.llc), &mix);
        let result = sim.run(scale.warmup, scale.measure);
        println!(
            "{:<12} weighted IPC {:.3}  aggregate MPKI {:>6.2}  per-core IPC {:?}",
            kind.name(),
            result.weighted_ipc(&base),
            result.mpki,
            result
                .ipc
                .iter()
                .map(|i| (i * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        );
    }
}
