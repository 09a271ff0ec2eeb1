//! Multiperspective reuse prediction (Jiménez & Teran, MICRO 2017).
//!
//! This crate is the paper's primary contribution:
//!
//! * [`feature`] — the seven parameterized feature types (§3.2): `pc`,
//!   `address`, `bias`, `burst`, `insert`, `lastmiss`, `offset`, each with
//!   a per-feature associativity parameter *A* and an optional XOR with
//!   the current PC.
//! * [`context`] — the per-core/per-set runtime state features are
//!   evaluated against (PC history, last-block and last-miss tracking).
//! * [`tables`] — the hashed-perceptron weight tables (6-bit saturating
//!   weights, §3.4), stored as one flat arena.
//! * [`plan`] — construction-time lowering of feature sets into
//!   straight-line index programs emitting arena offsets, transposed into
//!   SoA lane arrays for the branch-free batch kernels (the hot path).
//! * [`simd`] — runtime kernel dispatch (scalar vs. AVX2, `MRP_NO_SIMD`
//!   override) and the shared i8 gather-sum kernel.
//! * [`sampler`] — the 18-way LRU sampler with per-feature associativity
//!   training (§3.3, §3.8).
//! * [`predictor`] — [`MultiperspectivePredictor`], tying the above into a
//!   confidence-producing reuse predictor.
//! * [`mpppb`] — Multiperspective Placement, Promotion, and Bypass: the
//!   cache management policy driven by the predictor (§3.6), over either
//!   a static-MDPP or an SRRIP default policy (§3.7).
//! * [`feature_sets`] — the published feature sets (Tables 1(a), 1(b), 2)
//!   and tuned threshold/position parameters.
//! * [`options`] — typed [`RuntimeOptions`] for the process-wide
//!   execution knobs (SIMD dispatch, thread count),
//!   with the legacy environment variables as fallback.
//! * [`engine`] — the [`PredictionEngine`] facade: one typed front door
//!   ([`EngineConfig`] builder, batch submission, stats snapshots) that
//!   every driver, replay loop, and serving shard constructs through.
//!
//! # Example
//!
//! ```
//! use mrp_core::mpppb::{Mpppb, MpppbConfig};
//! use mrp_cache::{Cache, CacheConfig};
//! use mrp_trace::MemoryAccess;
//!
//! let llc = CacheConfig::llc_single();
//! let config = MpppbConfig::single_thread(&llc);
//! let mut cache = Cache::new(llc, Box::new(Mpppb::new(config, &llc)));
//! let access = MemoryAccess::load(0x400000, 0x1000);
//! cache.access(&access, false);
//! assert!(cache.access(&access, false).is_hit());
//! ```

pub mod adaptive;
pub mod context;
pub mod engine;
pub mod feature;
pub mod feature_sets;
pub mod mpppb;
pub mod options;
pub mod plan;
pub mod predictor;
pub mod sampler;
pub mod simd;
pub mod tables;

pub use adaptive::AdaptiveMpppb;
pub use engine::{Access, Decisions, EngineConfig, EngineStats, PredictionEngine};
pub use feature::{Feature, FeatureKind};
pub use mpppb::{DefaultPolicyKind, Mpppb, MpppbConfig};
pub use options::RuntimeOptions;
pub use plan::FeaturePlan;
pub use predictor::MultiperspectivePredictor;
pub use simd::SimdLevel;
