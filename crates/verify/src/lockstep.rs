//! Lockstep differential execution of optimized vs reference models.
//!
//! [`DualCache`] drives the optimized [`Cache`] and the shadow
//! [`ReferenceCache`] with the same access stream and two
//! identically-constructed policy instances, comparing access results,
//! per-set contents, structural invariants, and final statistics.
//! [`PredictorPair`] does the same for the predictor: the production
//! [`MultiperspectivePredictor::access`] path (compiled feature plan +
//! flat weight arena) vs interpretive indices + per-table vectors,
//! comparing index vectors, confidence sums, and (periodically) the
//! entire weight state.

use mrp_cache::{Cache, CacheConfig, ReplacementPolicy};
use mrp_core::context::{FeatureContext, PcHistory};
use mrp_core::feature::Feature;
use mrp_core::MultiperspectivePredictor;
use mrp_trace::MemoryAccess;

use crate::divergence::{Divergence, DivergenceReport};
use crate::invariants;
use crate::reference::{ReferenceCache, ReferencePredictor};

/// One fuzz-stream element: the access plus its prefetch flag.
pub type StreamItem = (MemoryAccess, bool);

/// The optimized cache and its shadow reference, stepped in lockstep.
pub struct DualCache {
    opt: Cache,
    reference: ReferenceCache,
    subject: String,
}

impl DualCache {
    /// Builds both sides from one policy factory, called twice so each
    /// side owns an identically-constructed instance.
    pub fn new(
        llc: CacheConfig,
        subject: &str,
        build: &dyn Fn(&CacheConfig) -> Box<dyn ReplacementPolicy + Send>,
    ) -> Self {
        DualCache::with_policies(llc, subject, build(&llc), build(&llc))
    }

    /// Pairs explicit policy instances. Tests use this to plant an
    /// intentionally buggy optimized-side policy and prove the lockstep
    /// harness catches it.
    pub fn with_policies(
        llc: CacheConfig,
        subject: &str,
        opt_policy: Box<dyn ReplacementPolicy + Send>,
        ref_policy: Box<dyn ReplacementPolicy + Send>,
    ) -> Self {
        DualCache {
            opt: Cache::new(llc, opt_policy),
            reference: ReferenceCache::new(llc, ref_policy),
            subject: subject.to_string(),
        }
    }

    /// Simulates one access on both sides and records any divergence:
    /// mismatched access results (hit/miss/bypass/evicted block),
    /// structural invariant violations, or set-content disagreement.
    pub fn step(
        &mut self,
        index: usize,
        access: &MemoryAccess,
        is_prefetch: bool,
        report: &mut DivergenceReport,
    ) {
        if !is_prefetch {
            self.opt.policy_mut().on_core_access(access);
            self.reference.policy_mut().on_core_access(access);
        }
        let r_opt = self.opt.access(access, is_prefetch);
        let r_ref = self.reference.access(access, is_prefetch);
        let divergence = |detail: String| Divergence {
            access_index: index,
            access: Some(*access),
            subject: self.subject.clone(),
            detail,
        };
        if r_opt != r_ref {
            report.push(divergence(format!(
                "access result diverged: optimized {r_opt:?} vs reference {r_ref:?}"
            )));
        }
        let set = self.opt.config().set_of(access.block());
        if let Err(detail) = invariants::check_cache_set(&self.opt, set) {
            report.push(divergence(detail));
        }
        if let Err(detail) = invariants::check_sets_agree(&self.opt, &self.reference, set) {
            report.push(divergence(detail));
        }
    }

    /// End-of-run check: both sides' statistics must be identical.
    pub fn finish(&self, stream_len: usize, report: &mut DivergenceReport) {
        if let Err(detail) = invariants::check_stats_agree(self.opt.stats(), self.reference.stats())
        {
            report.push(Divergence {
                access_index: stream_len,
                access: None,
                subject: self.subject.clone(),
                detail,
            });
        }
    }

    /// Demand misses accumulated by the optimized side (for the MIN
    /// bound).
    pub fn demand_misses(&self) -> u64 {
        self.opt.stats().demand_misses
    }
}

/// Runs a whole stream through a [`DualCache`], stopping early once the
/// divergence report is saturated. Returns the report and the optimized
/// side's demand-miss count.
pub fn run_lockstep(
    llc: &CacheConfig,
    subject: &str,
    build: &dyn Fn(&CacheConfig) -> Box<dyn ReplacementPolicy + Send>,
    stream: &[StreamItem],
) -> (DivergenceReport, u64) {
    let mut dual = DualCache::new(*llc, subject, build);
    let mut report = DivergenceReport::default();
    for (i, (access, is_prefetch)) in stream.iter().enumerate() {
        dual.step(i, access, *is_prefetch, &mut report);
        if report.saturated() {
            break;
        }
    }
    dual.finish(stream.len(), &mut report);
    (report, dual.demand_misses())
}

/// The optimized predictor and its shadow reference, stepped in lockstep.
///
/// Context flags (`is_mru`, `is_insert`, `last_miss`) are synthesized
/// from a stable hash of `(pc, address)` rather than from cache state, so
/// a step's inputs are a pure function of the access — which keeps the
/// trace shrinker sound (removing accesses never changes the flags of the
/// ones that remain).
pub struct PredictorPair {
    opt: MultiperspectivePredictor,
    reference: ReferencePredictor,
    /// Arena base offset of each feature's table, for the
    /// `offset == base + index` comparison.
    bases: Vec<u16>,
    history: PcHistory,
    llc_sets: u32,
    subject: String,
}

impl PredictorPair {
    /// Builds both predictor sides for one feature set.
    pub fn new(features: Vec<Feature>, llc_sets: u32, sampler_sets: u32, theta: i32) -> Self {
        let mut bases = Vec::with_capacity(features.len());
        let mut total = 0usize;
        for f in &features {
            bases.push(total as u16);
            total += f.table_size();
        }
        let subject = features
            .iter()
            .map(Feature::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        PredictorPair {
            opt: MultiperspectivePredictor::new(features.clone(), llc_sets, sampler_sets, theta),
            reference: ReferencePredictor::new(features, llc_sets, sampler_sets, theta),
            bases,
            history: PcHistory::new(),
            llc_sets,
            subject,
        }
    }

    fn divergence(&self, index: usize, access: Option<MemoryAccess>, detail: String) -> Divergence {
        Divergence {
            access_index: index,
            access,
            subject: self.subject.clone(),
            detail,
        }
    }

    /// Steps both predictors on one access. The optimized side runs
    /// [`MultiperspectivePredictor::access`], the one path MPPPB takes
    /// (fused predict, then training); its confidence and recorded
    /// offsets are compared against the reference's confidence and
    /// `base + reference_index` per feature, then the reference trains.
    /// Every 1024 steps the full weight state is swept.
    pub fn step(&mut self, index: usize, access: &MemoryAccess, report: &mut DivergenceReport) {
        self.history.push(access.pc);
        let h = stable_hash(access.pc, access.address);
        let ctx = FeatureContext {
            pc: access.pc,
            address: access.address,
            pc_history: self.history.as_slice(),
            is_mru: h & 1 != 0,
            is_insert: h & 2 != 0,
            last_miss: h & 4 != 0,
        };
        let set = (access.block() % u64::from(self.llc_sets)) as u32;
        let ref_indices = self.reference.compute_indices(&ctx);
        let c_ref = self.reference.confidence(&ref_indices);
        let c_opt = self.opt.access(&ctx, set, access.block());
        let offsets = self.opt.last_offsets();
        if offsets.len() != ref_indices.len() {
            report.push(self.divergence(
                index,
                Some(*access),
                format!(
                    "index arity diverged: plan emitted {}, reference {}",
                    offsets.len(),
                    ref_indices.len()
                ),
            ));
        }
        for (f, (&offset, &ref_index)) in offsets.iter().zip(&ref_indices).enumerate() {
            let expected = self.bases[f] + ref_index;
            if offset != expected {
                report.push(self.divergence(
                    index,
                    Some(*access),
                    format!(
                        "feature {f} offset diverged: plan {offset}, \
                         base {} + reference index {ref_index} = {expected}",
                        self.bases[f]
                    ),
                ));
            }
        }
        if c_opt != c_ref {
            report.push(self.divergence(
                index,
                Some(*access),
                format!("confidence diverged: arena sum {c_opt}, loop-fold sum {c_ref}"),
            ));
        }
        self.reference
            .train(set, access.block(), &ref_indices, c_ref);
        if index % 1024 == 1023 {
            self.sweep(index, report);
        }
    }

    /// Full-state comparison: every weight of every table must be
    /// bit-equal across sides and within saturation bounds, and both
    /// samplers must satisfy their structural invariants.
    pub fn sweep(&self, index: usize, report: &mut DivergenceReport) {
        for table in 0..self.reference.features().len() {
            for i in 0..self.reference.table_len(table) {
                let o = self.opt.tables().weight(table, i as u16);
                let r = self.reference.weight(table, i);
                if o != r {
                    report.push(self.divergence(
                        index,
                        None,
                        format!("weight[{table}][{i}] diverged: arena {o}, reference {r}"),
                    ));
                    return; // one weight mismatch implies a flood; report the first
                }
            }
        }
        if let Err(detail) = invariants::check_weight_bounds(self.opt.tables()) {
            report.push(self.divergence(index, None, detail));
        }
        if let Err(detail) = self.opt.sampler().check_invariants() {
            report.push(self.divergence(index, None, format!("optimized sampler: {detail}")));
        }
        if let Err(detail) = self.reference.sampler().check_invariants() {
            report.push(self.divergence(index, None, format!("reference sampler: {detail}")));
        }
    }
}

/// Runs a whole stream through a [`PredictorPair`] (prefetch flags are
/// ignored: the predictor fuzz exercises index/training equivalence, not
/// the cache's prefetch accounting).
pub fn run_predictor_lockstep(
    features: &[Feature],
    llc_sets: u32,
    sampler_sets: u32,
    theta: i32,
    stream: &[StreamItem],
) -> DivergenceReport {
    let mut pair = PredictorPair::new(features.to_vec(), llc_sets, sampler_sets, theta);
    let mut report = DivergenceReport::default();
    for (i, (access, _)) in stream.iter().enumerate() {
        pair.step(i, access, &mut report);
        if report.saturated() {
            break;
        }
    }
    pair.sweep(stream.len(), &mut report);
    report
}

/// Deterministic mixing hash for synthesized context flags (splitmix64
/// finalizer over pc and address).
fn stable_hash(pc: u64, address: u64) -> u64 {
    let mut z = pc ^ address.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_cache::policies::{Lru, Srrip};
    use mrp_core::feature::FeatureKind;

    fn llc() -> CacheConfig {
        CacheConfig::new(64 * 16 * 2, 16) // 2 sets x 16 ways
    }

    fn stream(n: u64) -> Vec<StreamItem> {
        (0..n)
            .map(|i| {
                let block = (i * 7 + (i * i) % 13) % 40;
                (
                    MemoryAccess::load(0x400000 + (i % 9) * 4, block * 64),
                    false,
                )
            })
            .collect()
    }

    #[test]
    fn identical_policies_never_diverge() {
        let c = llc();
        for build in [
            (|llc: &CacheConfig| {
                Box::new(Lru::new(llc.sets(), llc.associativity()))
                    as Box<dyn ReplacementPolicy + Send>
            }) as fn(&CacheConfig) -> Box<dyn ReplacementPolicy + Send>,
            |llc: &CacheConfig| Box::new(Srrip::new(llc.sets(), llc.associativity())),
        ] {
            let (report, _) = run_lockstep(&c, "test", &build, &stream(500));
            assert!(report.is_clean(), "{report}");
        }
    }

    #[test]
    fn mismatched_policies_are_caught() {
        let c = llc();
        let mut dual = DualCache::with_policies(
            c,
            "planted",
            Box::new(Lru::new(c.sets(), c.associativity())),
            Box::new(Srrip::new(c.sets(), c.associativity())),
        );
        let mut report = DivergenceReport::default();
        for (i, (a, p)) in stream(500).iter().enumerate() {
            dual.step(i, a, *p, &mut report);
            if report.saturated() {
                break;
            }
        }
        assert!(!report.is_clean(), "LRU vs SRRIP must diverge");
        assert!(report.recorded[0].access.is_some(), "context captured");
    }

    /// The private levels run `Cache<Lru>`, whose hooks are statically
    /// dispatched; the LLC runs the boxed `Cache` with a run-time policy.
    /// Both must match the reference cache access for access, across
    /// every associativity the valid bitmask admits.
    #[test]
    fn static_lru_cache_matches_boxed_and_reference() {
        use crate::fuzzer::SplitMix;
        let mut rng = SplitMix::new(0x5eed_0001);
        for assoc in [1u32, 2, 4, 8, 16, 64] {
            for sets_log2 in [0u32, 1, 3, 6, 9] {
                let sets = 1u32 << sets_log2;
                let c = CacheConfig::new(64 * u64::from(sets) * u64::from(assoc), assoc);
                let lru = || Lru::new(c.sets(), c.associativity());
                let mut statically = Cache::with_policy(c, lru());
                let mut boxed = Cache::new(c, Box::new(lru()));
                let mut reference = ReferenceCache::new(c, Box::new(lru()));
                // Twice the capacity in distinct blocks, half of the
                // accesses drawn from a hot quarter, so sets fill, hit,
                // and evict.
                let blocks = 2 * u64::from(sets * assoc);
                for i in 0..4000.max(4 * sets * assoc) {
                    let x = rng.next_u64();
                    let block = if x & 1 == 0 {
                        (x >> 8) % blocks.div_ceil(4)
                    } else {
                        (x >> 8) % blocks
                    };
                    let access = MemoryAccess::load(0x400000 + (x >> 50) * 4, block * 64);
                    let is_prefetch = x & 0x30 == 0;
                    let a = statically.access(&access, is_prefetch);
                    let b = boxed.access(&access, is_prefetch);
                    let r = reference.access(&access, is_prefetch);
                    assert_eq!(a, b, "assoc {assoc} sets {sets} access {i}");
                    assert_eq!(a, r, "assoc {assoc} sets {sets} access {i}");
                }
                assert_eq!(statically.stats(), boxed.stats());
                assert_eq!(statically.stats(), reference.stats());
                for set in 0..sets {
                    for way in 0..assoc {
                        let w = statically.way_block(set, way);
                        assert_eq!(w, boxed.way_block(set, way));
                        assert_eq!(w, reference.way_block(set, way));
                    }
                }
            }
        }
    }

    #[test]
    fn predictor_pair_stays_in_lockstep() {
        let features = vec![
            Feature::new(16, FeatureKind::Bias, false),
            Feature::new(6, FeatureKind::Burst, true),
            Feature::new(
                10,
                FeatureKind::Pc {
                    begin: 1,
                    end: 53,
                    which: 3,
                },
                false,
            ),
            Feature::new(15, FeatureKind::Offset { begin: 1, end: 5 }, true),
        ];
        let report = run_predictor_lockstep(&features, 256, 48, 40, &stream(3000));
        assert!(report.is_clean(), "{report}");
    }
}
