//! Multi-tenant traffic model for the serving fleet.
//!
//! Tenants are simulated users of the prediction service. Each tenant is
//! pinned to one of the 33 suite workloads (its "application") and draws
//! an infinite access stream from it under a tenant-private seed, so two
//! tenants on the same workload still produce distinct streams.
//!
//! Two fleet phenomena the traffic model reproduces deliberately:
//!
//! * **Zipf-distributed popularity** — tenant `t`'s share of the fleet's
//!   round volume is `1/(t+1)^α` normalized (α = 1), the standard model
//!   of skewed service traffic: tenant 0 is the whale, the tail is thin.
//! * **Bursty phases** — per tenant, whole phases of rounds run at a
//!   burst multiplier, driven by a hash of `(tenant, phase, seed)`, so
//!   load is non-stationary the way per-tenant drift studies observe.
//!
//! Everything is a pure function of `(config, tenant, round)` — quotas
//! never depend on shard assignment or on other tenants' progress —
//! which is what makes per-tenant results bit-identical across shard
//! counts (the determinism test in `crate::fleet` holds the fleet to
//! this).

use mrp_trace::workloads::{self, Trace, Workload};
use mrp_trace::MemoryAccess;

/// Zipf exponent for tenant popularity.
const ZIPF_ALPHA: f64 = 1.0;

/// Rounds per burst phase: a tenant keeps one burst state for this many
/// consecutive rounds before re-rolling.
const BURST_PHASE_ROUNDS: u64 = 16;

/// Volume multiplier while a tenant is bursting.
const BURST_FACTOR: u64 = 4;

/// Probability (out of 8) that a phase is a burst phase.
const BURST_NUMERATOR: u64 = 2;

/// Fleet-level traffic parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficConfig {
    /// Number of simulated tenants.
    pub tenants: usize,
    /// Base seed for tenant streams and burst phases.
    pub seed: u64,
    /// Average total accesses per round across the fleet (Zipf shares
    /// and burst multipliers modulate the per-tenant slice).
    pub round_quota: u64,
}

impl TrafficConfig {
    /// The tenant specs this config induces, tenant-id order.
    pub fn tenant_specs(&self) -> Vec<TenantSpec> {
        let suite = workloads::suite();
        let norm: f64 = (0..self.tenants)
            .map(|t| 1.0 / ((t + 1) as f64).powf(ZIPF_ALPHA))
            .sum();
        (0..self.tenants)
            .map(|t| {
                // Workload assignment hashes the tenant id so neighbors
                // in popularity rank don't all land on suite neighbors.
                let workload =
                    (splitmix(self.seed ^ (t as u64).wrapping_mul(0x9e37)) as usize) % suite.len();
                let share = 1.0 / ((t + 1) as f64).powf(ZIPF_ALPHA) / norm;
                TenantSpec {
                    tenant: t,
                    workload,
                    base_quota: ((self.round_quota as f64 * share).round() as u64).max(1),
                    seed: self.seed.wrapping_add(0x5eed_0000).wrapping_add(t as u64),
                }
            })
            .collect()
    }

    /// Accesses tenant `tenant` submits in `round` — pure in
    /// `(self, tenant, round)`.
    pub fn quota(&self, spec: &TenantSpec, round: u64) -> u64 {
        let phase = round / BURST_PHASE_ROUNDS;
        let roll = splitmix(
            self.seed
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(spec.tenant as u64)
                .wrapping_add(phase.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        if roll % 8 < BURST_NUMERATOR {
            spec.base_quota * BURST_FACTOR
        } else {
            spec.base_quota
        }
    }
}

/// One tenant's static assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant id (also its popularity rank: 0 is most popular).
    pub tenant: usize,
    /// Suite index of the workload backing this tenant's stream.
    pub workload: usize,
    /// Per-round access quota before burst modulation.
    pub base_quota: u64,
    /// Seed of the tenant's private stream.
    pub seed: u64,
}

impl TenantSpec {
    /// The workload backing this tenant.
    pub fn workload(&self) -> Workload {
        workloads::suite()[self.workload].clone()
    }
}

/// A tenant's live traffic source: its spec plus the open stream.
pub struct TenantTraffic {
    spec: TenantSpec,
    stream: Trace,
}

impl TenantTraffic {
    /// Opens the stream for `spec`.
    pub fn open(spec: TenantSpec) -> Self {
        TenantTraffic {
            stream: spec.workload().trace(spec.seed),
            spec,
        }
    }

    /// The tenant's static assignment.
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// Appends this tenant's accesses for `round` to `out`; returns how
    /// many were produced.
    pub fn fill(&mut self, config: &TrafficConfig, round: u64, out: &mut Vec<MemoryAccess>) -> u64 {
        let quota = config.quota(&self.spec, round);
        self.fill_next(quota as usize, out);
        quota
    }

    /// Appends the stream's next `n` accesses to `out`. The stream is one
    /// sequence however it is sliced, so filling a round's quota in
    /// several calls yields exactly what one [`TenantTraffic::fill`]
    /// would.
    pub(crate) fn fill_next(&mut self, n: usize, out: &mut Vec<MemoryAccess>) {
        self.stream.fill(n, out);
    }
}

/// SplitMix64 finalizer: the repo's standard cheap stateless hash.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> TrafficConfig {
        TrafficConfig {
            tenants: 8,
            seed: 42,
            round_quota: 1000,
        }
    }

    #[test]
    fn popularity_is_zipf_ordered() {
        let specs = config().tenant_specs();
        assert_eq!(specs.len(), 8);
        for pair in specs.windows(2) {
            assert!(pair[0].base_quota >= pair[1].base_quota);
        }
        // Tenant 0 holds the Zipf head: its base quota is ~1/H(8) of the
        // round total, several times the tail tenant's.
        assert!(specs[0].base_quota >= 4 * specs[7].base_quota);
        // Every tenant gets at least one access per round.
        assert!(specs.iter().all(|s| s.base_quota >= 1));
    }

    #[test]
    fn quotas_are_pure_and_bursty() {
        let c = config();
        let specs = c.tenant_specs();
        for spec in &specs {
            let a: Vec<u64> = (0..256).map(|r| c.quota(spec, r)).collect();
            let b: Vec<u64> = (0..256).map(|r| c.quota(spec, r)).collect();
            assert_eq!(a, b);
            // Quota is constant within a burst phase...
            for r in 0..256u64 {
                assert_eq!(c.quota(spec, r), c.quota(spec, (r / 16) * 16));
            }
        }
        // ...and at least one tenant sees both burst and baseline phases
        // over a modest horizon.
        let spec = &specs[0];
        let quotas: Vec<u64> = (0..1024).map(|r| c.quota(spec, r)).collect();
        assert!(quotas.contains(&spec.base_quota));
        assert!(quotas.contains(&(spec.base_quota * 4)));
    }

    #[test]
    fn streams_are_tenant_private_and_deterministic() {
        let specs = config().tenant_specs();
        let take = |spec: TenantSpec| -> Vec<MemoryAccess> {
            TenantTraffic::open(spec).stream.by_ref().take(64).collect()
        };
        assert_eq!(take(specs[0]), take(specs[0]));
        // Different tenants differ even when mapped to the same workload
        // (tenant-private seeds).
        for pair in specs.windows(2) {
            assert_ne!(take(pair[0]), take(pair[1]));
        }
    }

    #[test]
    fn fill_produces_exactly_the_quota() {
        let c = config();
        let mut t = TenantTraffic::open(c.tenant_specs()[2]);
        let mut buf = Vec::new();
        let n = t.fill(&c, 7, &mut buf);
        assert_eq!(buf.len() as u64, n);
        assert_eq!(n, c.quota(t.spec(), 7));
    }
}
