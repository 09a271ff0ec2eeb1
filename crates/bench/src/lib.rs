//! Shared scale constants for the criterion benches.
//!
//! The benches time the hot paths and design choices that DESIGN.md and
//! EXPERIMENTS.md cite; the figure binaries in `mrp-experiments` (and
//! their goldens) are the tool for regenerating the paper's numbers.

/// Warmup instructions for bench-scale single-thread runs.
pub const BENCH_WARMUP: u64 = 20_000;

/// Measured instructions for bench-scale single-thread runs.
pub const BENCH_MEASURE: u64 = 100_000;
