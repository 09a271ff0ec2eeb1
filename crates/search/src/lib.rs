//! Feature design-space exploration (paper §5).
//!
//! The paper finds its feature sets by starting "with a large set of
//! randomly chosen features", evaluating them "with a fast simulator that
//! only measures average MPKI", then refining with "a hill-climbing
//! algorithm" (§5.1). This crate
//! provides that machinery at laptop scale:
//!
//! * [`fast_sim`] — a fast MPKI-only evaluator: the LLC-filtered access
//!   stream of each workload is recorded once, then every candidate
//!   feature set replays the recorded stream against a bare LLC (no
//!   L1/L2/timing re-simulation per candidate).
//! * [`random`] — uniform random generation of parameterized features and
//!   16-feature sets.
//! * [`hillclimb`] — the paper's hill-climbing moves: replace a feature
//!   with a random one, duplicate another feature over it, or perturb one
//!   parameter; keep the change iff average MPKI improves.
//! * [`crossval`] — the two-subset cross-validation split used for the
//!   single-thread feature sets (§5.2).

pub mod crossval;
pub mod fast_sim;
pub mod hillclimb;
pub mod random;

pub use fast_sim::{replay_mpki, FastEvaluator};
pub use hillclimb::{HillClimbReport, HillClimber};
pub use random::RandomFeatures;
