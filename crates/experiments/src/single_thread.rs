//! Single-thread comparison matrix: Figures 6 (speedup) and 7 (MPKI).

use mrp_cache::CacheConfig;
use mrp_cpu::metrics::{arithmetic_mean, geometric_mean};
use mrp_trace::workloads;

use crate::policies::PolicyKind;
use crate::runner::{
    mpppb_cv_policy, mpppb_headline_policy, record, run_single, run_single_min, RunScale,
};

/// Per-workload results for all compared policies.
#[derive(Debug, Clone)]
pub struct StRow {
    /// Workload name.
    pub workload: String,
    /// LRU baseline IPC / MPKI.
    pub lru_ipc: f64,
    /// LRU MPKI.
    pub lru_mpki: f64,
    /// (policy name, ipc, mpki) for Hawkeye, Perceptron, MPPPB, MIN.
    pub policies: Vec<(String, f64, f64)>,
}

impl StRow {
    /// Speedup of policy `name` over LRU.
    pub fn speedup(&self, name: &str) -> f64 {
        self.policies
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, ipc, _)| ipc / self.lru_ipc)
            .unwrap_or_else(|| panic!("no policy {name}"))
    }

    /// MPKI of policy `name`.
    pub fn mpki(&self, name: &str) -> f64 {
        self.policies
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, mpki)| *mpki)
            .unwrap_or_else(|| panic!("no policy {name}"))
    }
}

/// Aggregate of a full single-thread comparison.
#[derive(Debug, Clone)]
pub struct StMatrix {
    /// One row per workload.
    pub rows: Vec<StRow>,
    /// Policy names in column order.
    pub policy_names: Vec<String>,
}

impl StMatrix {
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
        if name == "LRU" {
            arithmetic_mean(&self.rows.iter().map(|r| r.lru_mpki).collect::<Vec<_>>())
        } else {
            arithmetic_mean(&self.rows.iter().map(|r| r.mpki(name)).collect::<Vec<_>>())
        }
    }
}

/// Runs the headline single-thread comparison (LRU, Hawkeye, Perceptron,
/// MPPPB, MIN) over `workload_count` workloads of the suite.
///
/// MPPPB uses the default suite-tuned configuration. For the strict
/// cross-validated variant (each workload reported with features tuned
/// on the other half, plus the dueling guard — a sensitivity check on
/// feature generalization) use [`run_cv`].
pub fn run(scale: RunScale, workload_count: usize, include_min: bool) -> StMatrix {
    run_inner(scale, workload_count, include_min, false)
}

/// The cross-validated sensitivity variant of [`run`].
pub fn run_cv(scale: RunScale, workload_count: usize, include_min: bool) -> StMatrix {
    run_inner(scale, workload_count, include_min, true)
}

fn run_inner(scale: RunScale, workload_count: usize, include_min: bool, cv: bool) -> StMatrix {
    let suite = workloads::suite();
    let count = workload_count.min(suite.len()).max(1);
    let selected = &suite[..count];

    // Record every workload's LLC stream once, in parallel; each cell
    // below replays its workload's recording.
    let recordings = mrp_runtime::par_map(selected, |w| record(w, scale));

    // One job per (workload × policy) cell: every cell owns its own
    // policy instance, and cells are collected by index, so the parallel
    // schedule cannot affect row contents or order.
    let llc = CacheConfig::llc_single();
    let cols = if include_min { 5 } else { 4 };
    let cells = mrp_runtime::map_indexed(count * cols, |job| {
        let (w, rec) = (&selected[job / cols], &recordings[job / cols]);
        match job % cols {
            0 => run_single(rec, PolicyKind::Lru.build(&llc)),
            1 => run_single(rec, PolicyKind::hawkeye(&llc)),
            2 => run_single(rec, PolicyKind::Perceptron.build(&llc)),
            3 if cv => run_single(rec, mpppb_cv_policy(w)),
            3 => run_single(rec, mpppb_headline_policy(w)),
            _ => run_single_min(rec),
        }
    });

    let mut rows = Vec::with_capacity(count);
    for (wi, w) in selected.iter().enumerate() {
        let cell = |policy: usize| &cells[wi * cols + policy];
        let mut policies = vec![
            ("Hawkeye".to_string(), cell(1).ipc, cell(1).mpki),
            ("Perceptron".to_string(), cell(2).ipc, cell(2).mpki),
            ("MPPPB".to_string(), cell(3).ipc, cell(3).mpki),
        ];
        if include_min {
            policies.push(("MIN".to_string(), cell(4).ipc, cell(4).mpki));
        }
        rows.push(StRow {
            workload: w.name().to_string(),
            lru_ipc: cell(0).ipc,
            lru_mpki: cell(0).mpki,
            policies,
        });
    }
    let mut policy_names = vec![
        "Hawkeye".to_string(),
        "Perceptron".to_string(),
        "MPPPB".to_string(),
    ];
    if include_min {
        policy_names.push("MIN".to_string());
    }
    StMatrix { rows, policy_names }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_requested_shape() {
        let scale = RunScale::single_thread().warmup(20_000).measure(100_000);
        let m = run(scale, 2, true);
        assert_eq!(m.rows.len(), 2);
        assert_eq!(m.policy_names.len(), 4);
        for row in &m.rows {
            assert!(row.lru_ipc > 0.0);
            let _ = row.speedup("MPPPB");
            let _ = row.mpki("MIN");
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
