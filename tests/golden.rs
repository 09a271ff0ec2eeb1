//! Golden regression test for the Fig. 6 pipeline: a reduced-scale
//! MPKI/IPC matrix over representative workloads and policies must match
//! the committed reference bit-for-bit.
//!
//! This is the layout-change tripwire: the compiled-feature-plan, flat
//! weight arena, and SoA tag-array hot-path specializations all promise
//! bit-identical outputs, and this test holds them to it end to end
//! (trace generator -> hierarchy -> predictor -> CPU model).
//!
//! The matrix renderer and comparison live in `mrp_experiments::golden`
//! (shared with the `fig6_st_speedup --golden-check` driver mode, the
//! same check from the command line). Regenerate after an *intentional* output
//! change with `cargo run -p mrp-experiments --bin fig6_st_speedup --
//! --bless`; the test itself never writes the golden.
//!
//! The golden file records a fingerprint of the trace streams (they
//! depend on the generators and the vendored `rand`); a fingerprint
//! mismatch fails like any drifted row.

use mrp_experiments::golden;

#[test]
fn fig6_matrix_matches_committed_golden() {
    golden::check_against_committed("fig6_golden.txt", &golden::fig6_golden());
}

#[test]
fn golden_check_times_the_render_as_its_own_phase() {
    // A render that opens no phase must leave no `simulate` phase. (The
    // other test here opens only `record` and `replay` phases.)
    let dir = std::env::temp_dir().join(format!("mrp-golden-phase-{}", std::process::id()));
    let args = [
        "--golden-check",
        "--metrics",
        "--manifest-dir",
        dir.to_str().unwrap(),
    ];
    let args = mrp_experiments::Args::from_args(args.map(String::from));
    let committed = std::fs::read_to_string(golden::results_path("fig6_golden.txt")).unwrap();
    let code = golden::golden_mode(&args, "golden_phase_test", "fig6_golden.txt", 1, || {
        committed
    });
    mrp_obs::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(std::process::ExitCode::SUCCESS));
    let phases = mrp_obs::phases_snapshot();
    assert!(
        phases.iter().all(|(name, _)| name != "simulate"),
        "{phases:?}"
    );
    assert!(
        phases
            .iter()
            .any(|(name, stat)| name == "render" && stat.count == 1),
        "{phases:?}"
    );
}
