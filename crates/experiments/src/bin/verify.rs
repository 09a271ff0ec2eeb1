//! Differential verification driver: lockstep shadow models, simulation
//! invariants, and the MIN oracle bound over fuzzed traces.
//!
//! Usage: `cargo run -p mrp-experiments --release --bin verify --
//! [--seed N] [--accesses N] [--jobs N] [--policies lru,srrip,...|all]
//! [--threads N] [--replay-workloads N] [--replay-warmup N]
//! [--replay-measure N] [--metrics] [--manifest-dir DIR]`
//!
//! Exits nonzero on any divergence, printing the bounded divergence
//! report and a shrunk reproducer. Any failure reproduces from the
//! printed seed alone: `verify --seed N` replays identical streams
//! regardless of thread count.
//!
//! Besides the fuzzed lockstep sweep, every selected policy is also
//! checked through the record-once/replay-many path on real workloads
//! (`--replay-workloads`, 0 to skip): full simulation and replay must
//! agree bit for bit on IPC, MPKI, cycles, and every hierarchy counter,
//! and the MPKI-only `replay_llc` must reproduce full simulation's
//! cumulative LLC counters for every policy that ignores the core
//! access stream.

use std::process::ExitCode;

use mrp_experiments::{finish_manifest, Args, PolicyKind};
use mrp_obs::Json;
use mrp_trace::workloads;
use mrp_verify::{run_replay_check, run_verification, PolicySpec, VerifyConfig};

fn main() -> ExitCode {
    let args = Args::parse_known(&[
        "seed",
        "accesses",
        "jobs",
        "policies",
        "replay-workloads",
        "replay-warmup",
        "replay-measure",
        "threads",
        "no-simd",
        "metrics",
        "manifest-dir",
    ]);
    let threads = args.init_runtime_options();
    let cfg = VerifyConfig {
        seed: args.get_u64("seed", 42),
        accesses: args.get_usize("accesses", 1_000_000),
        jobs: args.get_usize("jobs", 8),
    };
    let policies: Vec<PolicySpec> = match selected(&args.get_str("policies", "all")) {
        Ok(kinds) => kinds.into_iter().map(PolicySpec::from).collect(),
        Err(name) => {
            eprintln!("unknown policy {name:?}");
            return ExitCode::FAILURE;
        }
    };
    let mut manifest = args.init_metrics("verify", cfg.seed);

    eprintln!(
        "verify: seed {} / {} accesses over {} jobs x {} policies on {threads} threads",
        cfg.seed,
        cfg.accesses,
        cfg.jobs,
        policies.len()
    );
    let summary = run_verification(&cfg, &policies);

    println!(
        "# verify seed={} jobs={} accesses/job={}",
        summary.seed, summary.jobs, summary.accesses_per_job
    );
    for name in policies.iter().map(|p| &p.name) {
        let cells: Vec<_> = summary
            .policy_cells
            .iter()
            .filter(|c| c.policy == *name)
            .collect();
        let divergences: usize = cells.iter().map(|c| c.report.total).sum();
        let misses: u64 = cells.iter().map(|c| c.demand_misses).sum();
        let status = if divergences == 0 { "ok" } else { "FAIL" };
        println!(
            "{name:>16}  {status:>4}  {divergences:>4} divergences  {misses:>9} demand misses"
        );
        if let Some(m) = manifest.as_mut() {
            m.cell(
                "fuzz",
                name,
                &[
                    ("divergences", divergences as f64),
                    ("demand_misses", misses as f64),
                ],
            );
        }
    }
    let predictor_divergences: usize = summary.predictor_reports.iter().map(|r| r.total).sum();
    println!(
        "{:>16}  {:>4}  {predictor_divergences:>4} divergences",
        "predictor",
        if predictor_divergences == 0 {
            "ok"
        } else {
            "FAIL"
        }
    );
    let kernel_divergences: usize = summary.kernel_reports.iter().map(|r| r.total).sum();
    println!(
        "{:>16}  {:>4}  {kernel_divergences:>4} divergences",
        "kernels",
        if kernel_divergences == 0 {
            "ok"
        } else {
            "FAIL"
        }
    );
    println!(
        "# MIN bound applied to {} of {} policy cells (prefetch jobs excluded)",
        summary.min_checks.0, summary.min_checks.1
    );

    // Phase: record/replay equivalence on real workloads.
    let replay_workloads = args.get_usize("replay-workloads", 3);
    let replay_clean = if replay_workloads == 0 {
        true
    } else {
        let suite = workloads::suite();
        let selected = &suite[..replay_workloads.min(suite.len())];
        let replay = run_replay_check(
            &policies,
            selected,
            args.get_u64("replay-warmup", 50_000),
            args.get_u64("replay-measure", 200_000),
            cfg.seed,
        );
        println!(
            "{:>16}  {:>4}  {}",
            "replay",
            if replay.is_clean() { "ok" } else { "FAIL" },
            replay
        );
        if !replay.is_clean() {
            eprintln!("\nreplay equivalence failures:\n{replay}");
        }
        replay.is_clean()
    };

    if let Some(m) = manifest.as_mut() {
        m.meta("jobs", Json::U64(summary.jobs as u64));
        m.meta(
            "accesses_per_job",
            Json::U64(summary.accesses_per_job as u64),
        );
        m.meta("min_checks", Json::U64(summary.min_checks.0 as u64));
        m.scalar("predictor_divergences", predictor_divergences as f64);
        m.scalar("kernel_divergences", kernel_divergences as f64);
        m.scalar("total_divergences", summary.total_divergences() as f64);
        m.scalar("replay_clean", if replay_clean { 1.0 } else { 0.0 });
    }

    if summary.is_clean() && replay_clean {
        println!("# clean: optimized and reference models agreed on every access");
        finish_manifest(manifest);
        return ExitCode::SUCCESS;
    }
    if summary.is_clean() {
        finish_manifest(manifest);
        return ExitCode::FAILURE;
    }

    eprintln!("\n{} divergence(s) found:", summary.total_divergences());
    for cell in summary.policy_cells.iter().filter(|c| !c.report.is_clean()) {
        eprintln!(
            "--- policy {} job {}:\n{}",
            cell.policy, cell.job, cell.report
        );
    }
    for (job, report) in summary
        .predictor_reports
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_clean())
    {
        eprintln!("--- predictor job {job}:\n{report}");
    }
    for (job, report) in summary
        .kernel_reports
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_clean())
    {
        eprintln!("--- kernels job {job}:\n{report}");
    }
    if let Some(shrunk) = &summary.shrunk {
        eprintln!("\n{shrunk}");
    }
    finish_manifest(manifest);
    ExitCode::FAILURE
}

/// The policies a `--policies` value names: `all` is every registered
/// policy in [`PolicyKind::ALL`] order, otherwise a comma-separated list
/// of keys. Errs with the first unknown name.
fn selected(selection: &str) -> Result<Vec<PolicyKind>, String> {
    if selection == "all" {
        return Ok(PolicyKind::ALL.to_vec());
    }
    selection
        .split(',')
        .map(str::trim)
        .map(|name| PolicyKind::from_name(name).ok_or_else(|| name.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_selection_is_the_registry_in_order() {
        assert_eq!(selected("all"), Ok(PolicyKind::ALL.to_vec()));
        assert_eq!(
            selected("mpppb, LRU"),
            Ok(vec![PolicyKind::MpppbSingle, PolicyKind::Lru])
        );
        assert_eq!(selected("lru,treeplru"), Err("treeplru".to_string()));
    }
}
