//! Smoke tier of the differential verification subsystem: every
//! registered policy runs lockstep against the shadow reference cache on
//! small fuzzed streams, the predictor lockstep runs on random feature
//! specs, and the MIN oracle bound is applied — all at a scale that fits
//! in a normal `cargo test` run. The full-scale sweep is
//! `cargo run -p mrp-experiments --release --bin verify`.

use mrp_experiments::PolicyKind;
use mrp_verify::{run_replay_check, run_verification, PolicySpec, VerifyConfig};

#[test]
fn all_policies_verify_clean_at_smoke_scale() {
    let cfg = VerifyConfig {
        seed: 0xC0FFEE,
        accesses: 16_000,
        jobs: 4,
    };
    let policies = PolicyKind::ALL.map(PolicySpec::from);

    let summary = run_verification(&cfg, &policies);
    let failures: Vec<String> = summary
        .policy_cells
        .iter()
        .filter(|c| !c.report.is_clean())
        .map(|c| format!("policy {} job {}:\n{}", c.policy, c.job, c.report))
        .chain(
            summary
                .predictor_reports
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.is_clean())
                .map(|(j, r)| format!("predictor job {j}:\n{r}")),
        )
        .collect();
    assert!(
        failures.is_empty(),
        "verification failures:\n{}",
        failures.join("\n")
    );
    assert_eq!(summary.policy_cells.len(), 13 * 4);
    assert_eq!(summary.predictor_reports.len(), 4);
    assert!(summary.min_checks.0 > 0, "MIN bound never applied");
    assert!(summary.shrunk.is_none());
}

#[test]
fn replay_path_is_bit_identical_for_every_policy() {
    // Record-once/replay-many lockstep: every registered policy, on a
    // slice of real workloads, must produce bit-identical IPC, MPKI,
    // cycles, and hierarchy counters through the replay fast path.
    let policies = PolicyKind::ALL.map(PolicySpec::from);
    let suite = mrp_trace::workloads::suite();
    let summary = run_replay_check(&policies, &suite[..3], 10_000, 40_000, 0xC0FFEE);
    assert_eq!(summary.cells, 13 * 3);
    assert!(summary.is_clean(), "{summary}");
}

#[test]
fn lockstep_stays_clean_with_simd_disabled() {
    // MRP_NO_SIMD is read once and OnceLock-cached, so the scalar
    // configuration needs a fresh process: run the verify driver as a
    // subprocess with the knob set. This pins the scalar fallback
    // kernels to the same lockstep + replay-equivalence bar as the
    // defaults.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_verify"))
        .env("MRP_NO_SIMD", "1")
        .args(["--seed", "5", "--accesses", "8000", "--jobs", "2"])
        .args(["--policies", "mpppb,mpppb-srrip,mpppb-adaptive"])
        .args(["--replay-workloads", "1"])
        .args(["--replay-warmup", "2000", "--replay-measure", "8000"])
        .output()
        .expect("spawn verify driver");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "verify diverged with SIMD disabled:\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("# clean"),
        "expected a clean verification summary:\n{stdout}"
    );
}

#[test]
fn verification_replays_identically_across_thread_counts() {
    let cfg = VerifyConfig {
        seed: 99,
        accesses: 4_000,
        jobs: 4,
    };
    let policies = [PolicyKind::Lru, PolicyKind::MpppbSingle].map(PolicySpec::from);
    let run = |threads: usize| {
        mrp_runtime::set_threads(threads);
        let summary = run_verification(&cfg, &policies);
        mrp_runtime::set_threads(0);
        summary
            .policy_cells
            .iter()
            .map(|c| (c.policy.clone(), c.job, c.demand_misses, c.min_misses))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(1), run(4), "results must not depend on thread count");
}
