//! Memory access traces and synthetic workloads.
//!
//! This crate provides the *workload substrate* for the multiperspective
//! reuse prediction reproduction:
//!
//! * [`MemoryAccess`] — the trace record consumed by the cache and CPU
//!   models in `mrp-cache` and `mrp-cpu`.
//! * [`generators`] — parameterized deterministic access-pattern generators
//!   spanning the locality spectrum (streaming, loops, pointer chasing,
//!   Zipfian object graphs, phased mixtures, ...).
//! * [`workloads`] — the named suite of 33 single-thread benchmarks used in
//!   place of SPEC CPU 2006 + CloudSuite (see `DESIGN.md` for the
//!   substitution rationale).
//! * [`mix`] — 4-core multi-programmed mix construction following the
//!   sample-balanced FIESTA methodology of the paper.
//!
//! All generators are deterministic functions of their seed, so every
//! experiment in the repository is exactly reproducible.
//!
//! # Example
//!
//! ```
//! use mrp_trace::workloads;
//!
//! let spec = workloads::suite();
//! let first = &spec[0];
//! let mut trace = first.trace(42);
//! let access = trace.next().expect("generators are infinite");
//! assert_eq!(access.core, 0);
//! ```

pub mod analysis;
pub mod generators;
pub mod mix;
pub mod record;
pub mod workloads;

pub use mix::{Mix, MixBuilder};
pub use record::{AccessKind, MemoryAccess, ServiceLevel, BLOCK_BYTES, BLOCK_OFFSET_BITS};
pub use workloads::{Workload, WorkloadId};
