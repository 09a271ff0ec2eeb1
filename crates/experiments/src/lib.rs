//! Experiment harness for the multiperspective reuse prediction
//! reproduction.
//!
//! One module per evaluation artifact in the paper; each has a matching
//! binary in `src/bin/` (Figs. 5 and 7 are the MPKI sections of the
//! Fig. 4 and Fig. 6 reports, from the same run):
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Fig. 1 / Fig. 8 (ROC curves) | [`roc`] | `fig_roc` |
//! | Fig. 3 (feature search) | [`search_curve`] | `fig3_search` |
//! | Fig. 4 (MP weighted speedup) | [`multi`] | `fig4_mp_speedup` |
//! | Fig. 5 (MP MPKI) | [`multi`] | `fig4_mp_speedup` |
//! | Fig. 6 (ST speedup) | [`single_thread`] | `fig6_st_speedup` |
//! | Fig. 7 (ST MPKI) | [`single_thread`] | `fig6_st_speedup` |
//! | Fig. 9 (associativity sweep) | [`assoc_sweep`] | `fig9_assoc` |
//! | Fig. 10 (feature ablation) | [`ablation`] | `fig10_ablation` |
//! | Tables 1 & 2 (feature sets) | [`mrp_core::feature_sets`] | `tables_features` |
//! | Table 3 (feature contributions) | [`feature_table`] | `table3_contrib` |
//!
//! All experiments are deterministic given their seed; every binary takes
//! `--instructions`, `--mixes`, `--workloads`, `--candidates` style
//! overrides (see [`cli`]) so runs scale from smoke test to paper scale.

pub mod ablation;
pub mod assoc_sweep;
pub mod cli;
pub mod feature_table;
pub mod golden;
pub mod multi;
pub mod output;
pub mod roc;
pub mod runner;
pub mod search_curve;
pub mod single_thread;

pub use cli::{finish_manifest, Args};
pub use mrp_baselines::PolicyKind;
pub use output::TextSink;
pub use runner::RunScale;

/// The fixed cross-validation split seed shared by the tuning binary
/// (`co_tune`) and the reporting experiments: features tuned on one half
/// of [`mrp_trace::workloads::suite`] are only used to report the other
/// half (§5.2).
pub const SPLIT_SEED: u64 = 17;

/// Half `half` (`"a"` or `"b"`) of the suite's fixed cross-validation
/// split ([`SPLIT_SEED`]), in split order. Any other name is an error, so
/// a mistyped half cannot tune one half under another half's label.
pub fn suite_half(half: &str) -> Result<Vec<mrp_trace::Workload>, String> {
    let (half_a, half_b) = mrp_search::crossval::split(&mrp_trace::workloads::suite(), SPLIT_SEED);
    match half {
        "a" => Ok(half_a),
        "b" => Ok(half_b),
        other => Err(format!("a suite half is `a` or `b`, not `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_halves_are_complements_and_other_names_are_rejected() {
        let names = |half| -> Vec<String> {
            suite_half(half)
                .expect("a known half")
                .iter()
                .map(|w| w.name().to_string())
                .collect()
        };
        let (a, b) = (names("a"), names("b"));
        assert_eq!(a.len() + b.len(), mrp_trace::workloads::suite().len());
        assert!(a.iter().all(|name| !b.contains(name)));
        for bad in ["c", "A", "", "ab"] {
            assert!(suite_half(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
