//! Structural simulation invariants.
//!
//! Each check returns `Err(detail)` instead of panicking so the lockstep
//! driver can fold violations into a bounded
//! [`crate::divergence::DivergenceReport`]. The same conditions are also
//! wired as `debug_assert!`s inside the hot paths themselves
//! (`mrp-cache`, `mrp-core`), where they run for free in debug builds and
//! under the CI debug-assertions job.

use mrp_cache::{Cache, CacheStats};
use mrp_core::tables::{WeightTables, WEIGHT_MAX, WEIGHT_MIN};

use crate::reference::ReferenceCache;

/// Checks one set of the optimized SoA cache: valid-bitmask width within
/// the associativity, occupancy ≤ associativity, every resident block
/// actually mapping to this set, and no duplicate residents.
pub fn check_cache_set(cache: &Cache, set: u32) -> Result<(), String> {
    let assoc = cache.config().associativity();
    let mask = cache.valid_mask(set);
    if assoc < 64 && mask >> assoc != 0 {
        return Err(format!(
            "set {set}: valid bitmask {mask:#x} has bits beyond associativity {assoc}"
        ));
    }
    let occupancy = mask.count_ones();
    if occupancy > assoc {
        return Err(format!(
            "set {set}: occupancy {occupancy} exceeds associativity {assoc}"
        ));
    }
    let mut seen: Vec<u64> = Vec::with_capacity(occupancy as usize);
    for way in 0..assoc {
        let Some(block) = cache.way_block(set, way) else {
            continue;
        };
        let home = cache.config().set_of(block);
        if home != set {
            return Err(format!(
                "set {set} way {way}: resident block {block:#x} maps to set {home}"
            ));
        }
        if seen.contains(&block) {
            return Err(format!(
                "set {set} way {way}: duplicate resident block {block:#x}"
            ));
        }
        seen.push(block);
    }
    Ok(())
}

/// Checks way-for-way agreement of one set between the optimized cache
/// and its shadow reference.
pub fn check_sets_agree(opt: &Cache, reference: &ReferenceCache, set: u32) -> Result<(), String> {
    for way in 0..opt.config().associativity() {
        let o = opt.way_block(set, way);
        let r = reference.way_block(set, way);
        if o != r {
            return Err(format!(
                "set {set} way {way}: optimized holds {o:?}, reference holds {r:?}"
            ));
        }
    }
    Ok(())
}

/// Checks that the optimized and reference caches accumulated identical
/// statistics over a run.
pub fn check_stats_agree(opt: &CacheStats, reference: &CacheStats) -> Result<(), String> {
    if opt == reference {
        Ok(())
    } else {
        Err(format!(
            "stats diverged: optimized {opt:?} vs reference {reference:?}"
        ))
    }
}

/// The oracle bound: no policy's demand-miss count on the recorded LLC
/// stream may beat MIN's (Belady with optimal bypass) on the same stream.
pub fn check_min_bound(policy_misses: u64, min_misses: u64) -> Result<(), String> {
    if policy_misses >= min_misses {
        Ok(())
    } else {
        Err(format!(
            "MIN bound violated: policy took {policy_misses} demand misses, \
             MIN floor is {min_misses}"
        ))
    }
}

/// Checks every weight in the arena against the paper's 6-bit
/// saturation bounds.
pub fn check_weight_bounds(tables: &WeightTables) -> Result<(), String> {
    let (min, max) = (WEIGHT_MIN, WEIGHT_MAX);
    for table in 0..tables.len() {
        let size = tables.base(table + 1) - tables.base(table);
        for index in 0..size {
            let w = tables.weight(table, index as u16);
            if w < min || w > max {
                return Err(format!(
                    "weight[{table}][{index}] = {w} outside saturation bounds [{min}, {max}]"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_cache::policies::Lru;
    use mrp_cache::CacheConfig;
    use mrp_core::feature::{Feature, FeatureKind};
    use mrp_trace::MemoryAccess;

    #[test]
    fn healthy_cache_passes_set_checks() {
        let config = CacheConfig::new(64 * 8, 4);
        let mut c = Cache::new(
            config,
            Box::new(Lru::new(config.sets(), config.associativity())),
        );
        for i in 0..20u64 {
            c.access(&MemoryAccess::load(0x400000, i * 64), false);
            for set in 0..config.sets() {
                check_cache_set(&c, set).expect("invariant");
            }
        }
    }

    #[test]
    fn min_bound_accepts_equality_and_rejects_beating() {
        assert!(check_min_bound(10, 10).is_ok());
        assert!(check_min_bound(11, 10).is_ok());
        assert!(check_min_bound(9, 10).is_err());
    }

    #[test]
    fn fresh_weight_tables_are_in_bounds() {
        let features = vec![
            Feature::new(16, FeatureKind::Bias, false),
            Feature::new(6, FeatureKind::Burst, true),
        ];
        let tables = WeightTables::new(&features);
        check_weight_bounds(&tables).expect("zeroed tables in bounds");
    }
}
