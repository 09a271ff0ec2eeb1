//! Multi-programmed comparison: Figures 4 (weighted speedup) and 5 (MPKI).

use mrp_cache::CacheConfig;
use mrp_cpu::metrics::{arithmetic_mean, geometric_mean};
use mrp_trace::MixBuilder;

use crate::runner::{run_mixes, RunScale};
use crate::PolicyKind;

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

/// Runs the multi-programmed comparison (LRU, Hawkeye, Perceptron,
/// MPPPB) over `mix_count` test mixes.
///
/// Mixes are drawn after `train_skip` training mixes (the paper trains on
/// the first 100 of 1000 and reports the remaining 900). `scale.seed`
/// draws the mixes and seeds the standalone-IPC traces.
pub fn run(scale: RunScale, mix_count: usize, train_skip: usize) -> MpMatrix {
    let builder = MixBuilder::new(scale.seed);
    let mixes: Vec<_> = (0..mix_count)
        .map(|i| builder.mix(train_skip + i))
        .collect();
    let columns = [
        PolicyKind::Hawkeye,
        PolicyKind::Perceptron,
        PolicyKind::MpppbMulti,
    ];
    let llc = CacheConfig::llc_multi();
    let run = run_mixes(scale, &mixes, &columns, |kind| kind.build(&llc));
    let names = columns.map(|kind| kind.name());

    let rows = mixes
        .iter()
        .zip(&run.rows)
        .map(|(mix, cells)| {
            let named = || names.iter().zip(&cells[1..]);
            let mut mpkis = vec![("LRU".to_string(), cells[0].mpki)];
            mpkis.extend(named().map(|(name, c)| (name.to_string(), c.mpki)));
            MpRow {
                label: mix.label(),
                speedups: named()
                    .map(|(name, c)| (name.to_string(), c.speedup))
                    .collect(),
                mpkis,
            }
        })
        .collect();
    MpMatrix {
        rows,
        policy_names: names.map(String::from).to_vec(),
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
