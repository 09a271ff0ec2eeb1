//! Comparison cache-management policies.
//!
//! Clean-room reimplementations of the techniques the paper evaluates
//! against (§4.3):
//!
//! * [`sdbp::Sdbp`] — Sampling Dead Block Prediction (Khan, Tian &
//!   Jiménez, MICRO 2010): skewed PC-indexed 2-bit counter tables trained
//!   by a reduced-associativity LRU sampler; drives replacement + bypass.
//! * [`perceptron::PerceptronPolicy`] — Perceptron learning for reuse
//!   prediction (Teran, Wang & Jiménez, MICRO 2016): hashed-perceptron
//!   tables over PC history and tag shifts; the direct ancestor of
//!   multiperspective prediction.
//! * [`hawkeye::Hawkeye`] — Hawkeye (Jain & Lin, ISCA 2016): OPTgen
//!   reconstructs Belady-optimal decisions for sampled sets and trains a
//!   PC-indexed classifier of cache-friendly vs. cache-averse loads.
//! * [`ship::Ship`] — SHiP (Wu et al., MICRO 2011): PC-signature hit
//!   prediction steering SRRIP insertion.
//! * [`min`] — Belady's MIN with optimal bypass, computed offline from a
//!   recorded LLC access stream (usable for single-thread runs only, as
//!   in the paper).
//!
//! All policies implement [`mrp_cache::ReplacementPolicy`], so they drop
//! into the same hierarchy as MPPPB. [`policy_kind::PolicyKind`] is the
//! registry of every LLC policy the workspace compares (these, the
//! `mrp-cache` baselines and the MPPPB variants from `mrp-core`; MIN
//! aside): it names each one and builds it for an LLC geometry, also
//! through the `PredictionEngine` facade.

pub mod hawkeye;
pub mod min;
pub mod perceptron;
pub mod policy_kind;
pub mod sdbp;
pub mod ship;

pub use hawkeye::Hawkeye;
pub use min::MinPolicy;
pub use perceptron::PerceptronPolicy;
pub use policy_kind::PolicyKind;
pub use sdbp::Sdbp;
pub use ship::Ship;
