//! Single-thread comparison matrix: Figures 6 (speedup) and 7 (MPKI).

use mrp_cache::CacheConfig;
use mrp_cpu::metrics::{arithmetic_mean, geometric_mean};
use mrp_trace::workloads;

use crate::runner::{
    mpppb_cv_policy, mpppb_headline_policy, record, run_single, run_single_min, RunScale,
};
use crate::PolicyKind;

/// Per-workload results for all compared policies.
#[derive(Debug, Clone)]
pub struct StRow {
    /// Workload name.
    pub workload: String,
    /// LRU baseline IPC.
    pub lru_ipc: f64,
    /// LRU MPKI.
    pub lru_mpki: f64,
    /// (policy name, ipc, mpki) per [`StMatrix::POLICY_NAMES`] column.
    pub policies: [(&'static str, f64, f64); 4],
}

impl StRow {
    /// Speedup of policy `name` over LRU.
    pub fn speedup(&self, name: &str) -> f64 {
        self.column(name).1 / self.lru_ipc
    }

    /// MPKI of policy `name` (`"LRU"` included).
    pub fn mpki(&self, name: &str) -> f64 {
        match name {
            "LRU" => self.lru_mpki,
            _ => self.column(name).2,
        }
    }

    fn column(&self, name: &str) -> &(&'static str, f64, f64) {
        self.policies
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("no policy {name}"))
    }
}

/// Aggregate of a full single-thread comparison.
#[derive(Debug, Clone)]
pub struct StMatrix {
    /// One row per workload.
    pub rows: Vec<StRow>,
}

impl StMatrix {
    /// The compared policies after the LRU baseline, in column order.
    pub const POLICY_NAMES: [&'static str; 4] = ["Hawkeye", "Perceptron", "MPPPB", "MIN"];

    /// Geometric-mean speedup over LRU for `name`.
    pub fn geomean_speedup(&self, name: &str) -> f64 {
        geometric_mean(
            &self
                .rows
                .iter()
                .map(|r| r.speedup(name))
                .collect::<Vec<_>>(),
        )
    }

    /// Arithmetic-mean MPKI for `name` (`"LRU"` included).
    pub fn mean_mpki(&self, name: &str) -> f64 {
        arithmetic_mean(&self.rows.iter().map(|r| r.mpki(name)).collect::<Vec<_>>())
    }
}

/// Runs the single-thread comparison (LRU, Hawkeye, Perceptron, MPPPB,
/// MIN) over `workload_count` workloads of the suite.
///
/// MPPPB uses the headline suite-tuned configuration, or with `cv` the
/// strict cross-validated variant (each workload reported with features
/// tuned on the other half, plus the dueling guard — a sensitivity check
/// on feature generalization).
///
/// One job per workload records its LLC stream, replays it into every
/// column in series and drops it, so at most one recording per worker is
/// alive. Rows are collected in suite order, so the parallel schedule
/// cannot affect their contents or order.
pub fn run(scale: RunScale, workload_count: usize, cv: bool) -> StMatrix {
    let suite = workloads::suite();
    let count = workload_count.min(suite.len()).max(1);
    let llc = CacheConfig::llc_single();
    let mpppb = if cv {
        mpppb_cv_policy
    } else {
        mpppb_headline_policy
    };
    let rows = mrp_runtime::par_map(&suite[..count], |w| {
        let rec = record(w, scale);
        let lru = run_single(&rec, PolicyKind::Lru.build(&llc));
        let cells = [
            run_single(&rec, PolicyKind::Hawkeye.build(&llc)),
            run_single(&rec, PolicyKind::Perceptron.build(&llc)),
            run_single(&rec, mpppb(w)),
            run_single_min(&rec),
        ];
        StRow {
            workload: w.name().to_string(),
            lru_ipc: lru.ipc,
            lru_mpki: lru.mpki,
            policies: std::array::from_fn(|i| {
                (StMatrix::POLICY_NAMES[i], cells[i].ipc, cells[i].mpki)
            }),
        }
    });
    StMatrix { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_equal_direct_record_and_replay() {
        // Every cell, headline and CV, must hold exactly what a direct
        // recording replayed into its column's policy gives.
        let scale = RunScale::single_thread().warmup(10_000).measure(40_000);
        let llc = CacheConfig::llc_single();
        for cv in [false, true] {
            let m = run(scale, 2, cv);
            assert_eq!(m.rows.len(), 2);
            for (row, w) in m.rows.iter().zip(&workloads::suite()) {
                let rec = record(w, scale);
                let mpppb = if cv {
                    mpppb_cv_policy(w)
                } else {
                    mpppb_headline_policy(w)
                };
                let want = [
                    run_single(&rec, PolicyKind::Lru.build(&llc)),
                    run_single(&rec, PolicyKind::Hawkeye.build(&llc)),
                    run_single(&rec, PolicyKind::Perceptron.build(&llc)),
                    run_single(&rec, mpppb),
                    run_single_min(&rec),
                ];
                let got = std::iter::once((row.lru_ipc, row.lru_mpki))
                    .chain(row.policies.iter().map(|&(_, ipc, mpki)| (ipc, mpki)));
                assert_eq!(row.workload, w.name());
                assert_eq!(row.policies.map(|p| p.0), StMatrix::POLICY_NAMES);
                for (r, (ipc, mpki)) in want.iter().zip(got) {
                    let bits = (r.ipc.to_bits(), r.mpki.to_bits());
                    assert_eq!(bits, (ipc.to_bits(), mpki.to_bits()), "{row:?} cv={cv}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no policy")]
    fn unknown_policy_name_panics() {
        let scale = RunScale::single_thread().warmup(10_000).measure(50_000);
        let m = run(scale, 1, false);
        let _ = m.rows[0].speedup("Nonexistent");
    }
}
