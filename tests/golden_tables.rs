//! Golden regression tests for the table-producing drivers: the ROC
//! curves, the Fig. 3 feature search, the Fig. 4/5 multi-programmed
//! matrix, the Fig. 9 associativity sweep, the Fig. 10 ablation and the
//! Table 3 feature-contribution matrix at reduced scale must match their
//! committed references bit-for-bit.
//!
//! Regenerate after an *intentional* output change with the driver's
//! `--bless` flag (`cargo run -p mrp-experiments --bin fig10_ablation --
//! --bless`, likewise `fig_roc`, `fig3_search`, `fig4_mp_speedup`,
//! `fig9_assoc` and `table3_contrib`); the tests never write a golden.
//!
//! Values depend on the trace generators and the vendored `rand`, which
//! the golden's fingerprint line pins; a fingerprint mismatch fails (see
//! `mrp_experiments::golden`).

use mrp_experiments::golden;

#[test]
fn fig_roc_matches_committed_golden() {
    golden::check_against_committed("fig_roc_golden.txt", &golden::roc_golden());
}

#[test]
fn fig3_search_matches_committed_golden() {
    golden::check_against_committed("fig3_golden.txt", &golden::fig3_golden());
}

#[test]
fn fig4_multiprogrammed_matches_committed_golden() {
    golden::check_against_committed("fig4_golden.txt", &golden::fig4_golden());
}

#[test]
fn fig9_assoc_matches_committed_golden() {
    golden::check_against_committed("fig9_golden.txt", &golden::fig9_golden());
}

#[test]
fn fig10_ablation_matches_committed_golden() {
    golden::check_against_committed("fig10_golden.txt", &golden::ablation_golden());
}

#[test]
fn table3_contrib_matches_committed_golden() {
    golden::check_against_committed("table3_golden.txt", &golden::table3_golden());
}
