//! Set-associative cache simulation substrate.
//!
//! This crate implements the memory-hierarchy model the paper's evaluation
//! rests on (§4.1): a three-level hierarchy (32KB/8-way L1D, 256KB/8-way
//! unified L2, configurable LLC), a 16-stream prefetcher, and a family of
//! replacement policies behind one [`ReplacementPolicy`] trait:
//!
//! * [`policies::Lru`] — true LRU (the paper's baseline),
//! * [`policies::RandomPolicy`] — random replacement,
//! * [`policies::TreePlru`] — tree-based pseudo-LRU,
//! * [`policies::Srrip`] / [`policies::Brrip`] / [`policies::Drrip`] —
//!   re-reference interval prediction with set dueling,
//! * [`policies::Mdpp`] — static minimal-disturbance placement & promotion.
//!
//! The paper's own contribution (MPPPB, in `mrp-core`) and the comparison
//! predictors (`mrp-baselines`) implement the same trait, so every
//! experiment in `mrp-experiments` is a policy swap on an identical
//! hierarchy.
//!
//! # Example
//!
//! ```
//! use mrp_cache::{Cache, CacheConfig};
//! use mrp_cache::policies::Lru;
//! use mrp_trace::MemoryAccess;
//!
//! let config = CacheConfig::new(2 * 1024 * 1024, 16); // 2MB, 16-way
//! let mut cache = Cache::new(config, Box::new(Lru::new(config.sets(), config.associativity())));
//! let access = MemoryAccess::load(0x400000, 0x1000);
//! assert!(!cache.access(&access, false).is_hit()); // cold miss
//! assert!(cache.access(&access, false).is_hit()); // now resident
//! ```

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod policies;
pub mod policy;
pub mod prefetch;
pub mod replay;
pub mod stats;

pub use cache::{AccessResult, Cache};
pub use config::CacheConfig;
pub use hierarchy::{Hierarchy, HierarchyConfig, LevelLatencies};
pub use policy::{AccessInfo, ReplacementPolicy, UpcomingAccess};
pub use prefetch::{PrefetchRequests, StreamPrefetcher};
pub use replay::{LlcRecording, RecordedWindow};
pub use stats::{CacheStats, HierarchyStats};

/// Trace accesses pulled per hierarchy batch group
/// ([`Hierarchy::access_batch`]).
///
/// A group runs the private levels for all its accesses first, then
/// drains the queued LLC operations in order; 64 trace accesses is
/// roughly 8–16 LLC operations on this suite (about 1 in 6 accesses
/// reaches the LLC). Whether that private-first grouping pays end to
/// end has not been measured on its own. Grouping is
/// latency-invisible: per-access outcomes and statistics are
/// bit-identical for any group size (see
/// `access_batch_is_bit_identical_to_sequential`).
pub const HIERARCHY_BATCH: usize = 64;
