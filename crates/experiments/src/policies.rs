//! Policy lineups shared by all experiments.
//!
//! The name→policy factory itself ([`PolicyKind`]) lives in
//! `mrp-baselines` so the serving fleet (`mrp-serve`) and the batch
//! drivers construct policies through the same registry; this module
//! re-exports it and keeps the verification lineup.

use std::sync::Arc;

use mrp_cache::CacheConfig;
use mrp_verify::PolicySpec;

pub use mrp_baselines::PolicyKind;

/// Every policy the differential verification covers, in CLI naming.
pub const ALL_POLICIES: [&str; 13] = [
    "lru",
    "random",
    "plru",
    "srrip",
    "drrip",
    "mdpp",
    "ship",
    "sdbp",
    "perceptron",
    "mpppb",
    "mpppb-srrip",
    "mpppb-adaptive",
    "hawkeye",
];

/// The verification spec for a CLI policy name. Hawkeye has no
/// [`PolicyKind`] variant and is built by [`PolicyKind::hawkeye`].
///
/// # Panics
///
/// Panics on a name outside [`ALL_POLICIES`].
pub fn spec(name: &str) -> PolicySpec {
    if name == "hawkeye" {
        return PolicySpec::new(name, Arc::new(|llc: &CacheConfig| PolicyKind::hawkeye(llc)));
    }
    let kind = PolicyKind::from_name(name)
        .unwrap_or_else(|| panic!("unknown policy {name:?}; known: {ALL_POLICIES:?}"));
    PolicySpec::new(name, Arc::new(move |llc: &CacheConfig| kind.build(llc)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_verification_policy_builds_once() {
        let llc = CacheConfig::llc_single();
        for (i, name) in ALL_POLICIES.iter().enumerate() {
            assert!(!ALL_POLICIES[..i].contains(name), "{name} listed twice");
            let spec = spec(name);
            assert_eq!(spec.name, *name);
            let _policy = (spec.build)(&llc);
        }
    }
}
