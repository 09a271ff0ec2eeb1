//! Multi-programmed comparison: Figures 4 (weighted speedup) and 5 (MPKI).

use mrp_cpu::metrics::{arithmetic_mean, geometric_mean};
use mrp_trace::{workloads, MixBuilder};

use crate::policies::PolicyKind;
use crate::runner::{mix_standalone, run_mix_hawkeye, run_mix_kind, standalone_ipcs, RunScale};

/// Per-mix results of the multi-programmed comparison.
#[derive(Debug, Clone)]
pub struct MpRow {
    /// Mix label (member workload names).
    pub label: String,
    /// Normalized weighted speedup per policy, LRU-normalized.
    pub speedups: Vec<(String, f64)>,
    /// MPKI per policy (LRU included by name).
    pub mpkis: Vec<(String, f64)>,
}

/// Aggregate results across mixes.
#[derive(Debug, Clone)]
pub struct MpMatrix {
    /// One row per mix.
    pub rows: Vec<MpRow>,
    /// Policy column order (not including LRU for speedups).
    pub policy_names: Vec<String>,
}

impl MpMatrix {
    /// Speedup values of `name` across mixes (for S-curves).
    pub fn speedups(&self, name: &str) -> Vec<f64> {
        self.rows
            .iter()
            .map(|r| {
                r.speedups
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("no policy {name}"))
            })
            .collect()
    }

    /// MPKI values of `name` across mixes.
    pub fn mpkis(&self, name: &str) -> Vec<f64> {
        self.rows
            .iter()
            .map(|r| {
                r.mpkis
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("no policy {name}"))
            })
            .collect()
    }

    /// Geometric-mean normalized weighted speedup of `name`.
    pub fn geomean_speedup(&self, name: &str) -> f64 {
        geometric_mean(&self.speedups(name))
    }

    /// Arithmetic-mean MPKI of `name`.
    pub fn mean_mpki(&self, name: &str) -> f64 {
        arithmetic_mean(&self.mpkis(name))
    }

    /// How many mixes run slower than LRU under `name` (the paper notes
    /// 18 for Hawkeye, 201 for Perceptron, 115 for MPPPB of 900).
    pub fn below_lru(&self, name: &str) -> usize {
        self.speedups(name).iter().filter(|&&s| s < 1.0).count()
    }
}

/// Runs the multi-programmed comparison over `mix_count` test mixes.
///
/// Mixes are drawn after `train_skip` training mixes (the paper trains on
/// the first 100 of 1000 and reports the remaining 900). `scale.seed`
/// draws the mixes and seeds the standalone-IPC traces.
pub fn run(scale: RunScale, mix_count: usize, train_skip: usize) -> MpMatrix {
    let suite = workloads::suite();
    let builder = MixBuilder::new(scale.seed);
    let standalone = standalone_ipcs(&suite, scale);

    // One job per (mix × policy) cell, collected by index; the weighted
    // speedups are normalized against each mix's LRU cell afterward.
    let mixes: Vec<_> = (0..mix_count)
        .map(|i| builder.mix(train_skip + i))
        .collect();
    const COLS: usize = 4;
    let cells = mrp_runtime::map_indexed(mixes.len() * COLS, |job| {
        let mix = &mixes[job / COLS];
        match job % COLS {
            0 => run_mix_kind(mix, PolicyKind::Lru, scale),
            1 => run_mix_hawkeye(mix, scale),
            2 => run_mix_kind(mix, PolicyKind::Perceptron, scale),
            _ => run_mix_kind(mix, PolicyKind::MpppbMulti, scale),
        }
    });

    let mut rows = Vec::with_capacity(mixes.len());
    for (mi, mix) in mixes.iter().enumerate() {
        let base = mix_standalone(mix, &standalone);
        let cell = |policy: usize| &cells[mi * COLS + policy];
        let lru_weighted = cell(0).weighted_ipc(&base);

        let named = [(1, "Hawkeye"), (2, "Perceptron"), (3, "MPPPB")];
        let speedups = named
            .iter()
            .map(|&(p, name)| (name.to_string(), cell(p).weighted_ipc(&base) / lru_weighted))
            .collect();
        let mut mpkis = vec![("LRU".to_string(), cell(0).mpki)];
        mpkis.extend(
            named
                .iter()
                .map(|&(p, name)| (name.to_string(), cell(p).mpki)),
        );

        rows.push(MpRow {
            label: mix.label(),
            speedups,
            mpkis,
        });
    }
    MpMatrix {
        rows,
        policy_names: vec![
            "Hawkeye".to_string(),
            "Perceptron".to_string(),
            "MPPPB".to_string(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shape_and_metrics() {
        let scale = RunScale::multi_core()
            .warmup(20_000)
            .measure(100_000)
            .seed(5);
        let m = run(scale, 2, 1);
        assert_eq!(m.rows.len(), 2);
        assert_eq!(m.speedups("MPPPB").len(), 2);
        assert_eq!(m.mpkis("LRU").len(), 2);
        assert!(m.mean_mpki("LRU") >= 0.0);
        assert!(m.below_lru("Hawkeye") <= 2);
    }
}
