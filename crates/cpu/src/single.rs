//! Single-core simulation: trace + hierarchy + timing.

use std::fmt;

use mrp_cache::{Hierarchy, HierarchyConfig, HierarchyStats, ReplacementPolicy, HIERARCHY_BATCH};
use mrp_trace::MemoryAccess;

use crate::core_model::{CoreModel, CoreModelConfig};

/// Result of a measured single-core run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleCoreResult {
    /// Instructions per cycle over the measurement window.
    pub ipc: f64,
    /// LLC misses per kilo-instruction.
    pub mpki: f64,
    /// Instructions retired during measurement.
    pub instructions: u64,
    /// Cycles consumed during measurement.
    pub cycles: u64,
    /// Full hierarchy statistics for the measurement window.
    pub stats: HierarchyStats,
}

impl SingleCoreResult {
    /// Publishes the run's hierarchy counters plus `<prefix>.cycles`
    /// into the [`mrp_obs`] registry. Counters accumulate across runs,
    /// so after a driver's fan-out they hold suite-wide totals. No-op
    /// while telemetry is disabled.
    pub fn publish(&self, prefix: &str) {
        if !mrp_obs::enabled() {
            return;
        }
        self.stats.publish(prefix);
        mrp_obs::counter(&format!("{prefix}.cycles")).add(self.cycles);
    }
}

/// Drives one trace through a [`Hierarchy`] and a [`CoreModel`].
pub struct SingleCoreSim<T> {
    hierarchy: Hierarchy,
    core: CoreModel,
    trace: T,
}

impl<T> fmt::Debug for SingleCoreSim<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SingleCoreSim")
            .field("hierarchy", &self.hierarchy)
            .finish()
    }
}

impl<T: Iterator<Item = MemoryAccess>> SingleCoreSim<T> {
    /// Creates the simulation with the paper's default core parameters.
    pub fn new(
        config: HierarchyConfig,
        llc_policy: Box<dyn ReplacementPolicy + Send>,
        trace: T,
    ) -> Self {
        SingleCoreSim {
            hierarchy: Hierarchy::new(config, llc_policy),
            core: CoreModel::new(CoreModelConfig::default()),
            trace,
        }
    }

    /// Creates the simulation around an already-constructed LLC — the
    /// facade route (`PredictionEngine::into_llc`).
    ///
    /// # Panics
    ///
    /// Panics if the LLC's geometry differs from `config.llc`.
    pub fn with_llc(config: HierarchyConfig, llc: mrp_cache::Cache, trace: T) -> Self {
        SingleCoreSim {
            hierarchy: Hierarchy::with_llc(config, llc),
            core: CoreModel::new(CoreModelConfig::default()),
            trace,
        }
    }

    /// Runs `warmup` instructions to warm microarchitectural state, then
    /// measures for `measure` instructions (the paper warms for 500M and
    /// measures 1B; scale to taste).
    pub fn run(&mut self, warmup: u64, measure: u64) -> SingleCoreResult {
        self.advance(warmup);
        // Reset measurement state at the warmup boundary.
        self.core.reset_counters();
        let stats_before = self.hierarchy.stats();
        self.advance(measure);
        let mut stats = self.hierarchy.stats();
        stats.l1d = diff(&stats.l1d, &stats_before.l1d);
        stats.l2 = diff(&stats.l2, &stats_before.l2);
        stats.llc = diff(&stats.llc, &stats_before.llc);
        stats.instructions -= stats_before.instructions;
        stats.prefetches_issued -= stats_before.prefetches_issued;

        let cycles = self.core.drained_cycles();
        let instructions = self.core.instructions();
        SingleCoreResult {
            ipc: self.core.ipc(),
            mpki: stats.llc_mpki(),
            instructions,
            cycles,
            stats,
        }
    }

    /// Runs until at least `instructions` have retired, driving the
    /// hierarchy in [`HIERARCHY_BATCH`]-access groups
    /// ([`Hierarchy::access_batch`]). The groups pay because the
    /// private-level phase issues every L1-missing member's LLC tag-row
    /// prefetch before the LLC drain starts, so those cache misses
    /// overlap instead of stalling one access at a time. The group pull
    /// re-checks the retirement target exactly where the one-at-a-time
    /// loop would, so the access sequence (including the final
    /// overshoot) is unchanged; accesses retire in access order.
    fn advance(&mut self, instructions: u64) {
        let mut retired = 0u64;
        let mut group: Vec<MemoryAccess> = Vec::with_capacity(HIERARCHY_BATCH);
        let mut outcomes = Vec::with_capacity(HIERARCHY_BATCH);
        while retired < instructions {
            group.clear();
            while group.len() < HIERARCHY_BATCH && retired < instructions {
                let access = self.trace.next().expect("traces are infinite");
                retired += access.instructions();
                group.push(access);
            }
            self.hierarchy.access_batch(&group, &mut outcomes);
            for (access, outcome) in group.iter().zip(&outcomes) {
                self.core.retire_access(
                    access.instructions() as u32,
                    outcome.latency,
                    access.dependent,
                );
            }
        }
    }

    /// The hierarchy (for policy introspection after a run).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }
}

fn diff(after: &mrp_cache::CacheStats, before: &mrp_cache::CacheStats) -> mrp_cache::CacheStats {
    mrp_cache::CacheStats {
        demand_hits: after.demand_hits - before.demand_hits,
        demand_misses: after.demand_misses - before.demand_misses,
        bypasses: after.bypasses - before.bypasses,
        prefetch_hits: after.prefetch_hits - before.prefetch_hits,
        prefetch_fills: after.prefetch_fills - before.prefetch_fills,
        evictions: after.evictions - before.evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_cache::policies::Lru;
    use mrp_trace::workloads;

    fn sim_for(workload: usize) -> SingleCoreSim<mrp_trace::workloads::Trace> {
        let config = HierarchyConfig::single_thread();
        let lru = Lru::new(config.llc.sets(), config.llc.associativity());
        SingleCoreSim::new(config, Box::new(lru), workloads::suite()[workload].trace(1))
    }

    #[test]
    fn fitting_loop_has_high_ipc_and_low_mpki() {
        let mut sim = sim_for(3); // loop.fit: 1MB loop
        let r = sim.run(200_000, 200_000);
        assert!(r.mpki < 1.0, "loop.fit mpki: {}", r.mpki);
        assert!(r.ipc > 2.0, "loop.fit ipc: {}", r.ipc);
    }

    #[test]
    fn big_chase_has_low_ipc_and_high_mpki() {
        let mut sim = sim_for(9); // chase.16m
        let r = sim.run(100_000, 200_000);
        assert!(r.mpki > 20.0, "chase.16m mpki: {}", r.mpki);
        assert!(r.ipc < 0.5, "chase.16m ipc: {}", r.ipc);
    }

    #[test]
    fn measurement_excludes_warmup() {
        let mut sim = sim_for(3);
        let r = sim.run(300_000, 100_000);
        assert!(r.instructions >= 100_000);
        assert!(r.instructions < 110_000);
        assert_eq!(r.stats.instructions, r.instructions);
    }

    #[test]
    fn results_are_deterministic() {
        let a = sim_for(10).run(50_000, 100_000);
        let b = sim_for(10).run(50_000, 100_000);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats, b.stats);
    }
}
