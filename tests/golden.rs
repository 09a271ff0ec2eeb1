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
//! change with `MRP_UPDATE_GOLDEN=1 cargo test -p mrp-experiments --test
//! golden` or `cargo run -p mrp-experiments --bin fig6_st_speedup --
//! --bless`.
//!
//! The golden file records a fingerprint of the trace streams (they
//! depend on the generators and the vendored `rand`); a fingerprint
//! mismatch fails like any drifted row.

use mrp_experiments::golden;

#[test]
fn fig6_matrix_matches_committed_golden() {
    golden::check_against_committed("fig6_golden.txt", &golden::fig6_golden());
}
