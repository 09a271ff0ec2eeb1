//! Typed runtime options replacing the environment-knob sprawl.
//!
//! Two process-wide knobs used to be reachable only through
//! environment variables read at scattered call sites:
//!
//! | knob | legacy env var | effect |
//! |---|---|---|
//! | SIMD dispatch | `MRP_NO_SIMD` | pin kernels to scalar |
//! | worker threads | `MRP_THREADS` | parallel fan-out width |
//!
//! [`RuntimeOptions`] is the typed front door: binaries parse explicit
//! flags (`--no-simd`, `--threads`) into one struct,
//! [`RuntimeOptions::install`] publishes the SIMD choice to the
//! dispatchers in this crate, and callers that link `mrp-runtime`
//! pass [`RuntimeOptions::thread_request`] to its `set_threads`. Every
//! field is an `Option`: `None` defers to the environment variable, so
//! existing scripts, the CI kernel-dispatch matrix, and A/B recipes keep
//! working unchanged. An explicit option always wins over the
//! environment.
//!
//! Both knobs are throughput devices, never semantics: results are
//! bit-identical at every setting (held to that by `mrp-verify`'s
//! kernel-identity and lockstep passes).

use crate::simd;

/// Typed overrides for the process-wide execution knobs.
///
/// Construct with [`RuntimeOptions::default`] (all `None`, so every knob
/// defers to its environment variable), refine with the builder methods
/// and call [`install`].
///
/// [`install`]: RuntimeOptions::install
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeOptions {
    /// `Some(true)` pins every kernel to the scalar form;
    /// `Some(false)` dispatches to the widest level the hardware
    /// offers; `None` defers to `MRP_NO_SIMD`.
    pub no_simd: Option<bool>,
    /// Requested worker-thread count; `None` or `Some(0)` defers to
    /// `MRP_THREADS`, then the machine's available parallelism.
    pub threads: Option<usize>,
}

impl RuntimeOptions {
    /// Pins (or un-pins) kernel dispatch to scalar.
    pub fn no_simd(mut self, no_simd: bool) -> Self {
        self.no_simd = Some(no_simd);
        self
    }

    /// Requests a worker-thread count (`0` = automatic).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Merges the shared command-line flags on top of the environment
    /// defaults: a present `--no-simd` switch or a nonzero
    /// `--threads` overrides; absent flags leave the env fallback in
    /// place. One-liner glue for every driver:
    ///
    /// ```ignore
    /// RuntimeOptions::default().with_cli(
    ///     args.get_flag("no-simd", false),
    ///     args.get_usize("threads", 0),
    /// ).install();
    /// ```
    pub fn with_cli(mut self, no_simd: bool, threads: usize) -> Self {
        if no_simd {
            self.no_simd = Some(true);
        }
        if threads > 0 {
            self.threads = Some(threads);
        }
        self
    }

    /// The thread count to hand to `mrp_runtime::set_threads` (`0` keeps
    /// its own `MRP_THREADS`-then-hardware resolution).
    pub fn thread_request(&self) -> usize {
        self.threads.unwrap_or(0)
    }

    /// Publishes the SIMD choice to the in-crate dispatchers. A `None`
    /// field *clears* any previous override, so the environment
    /// variable decides again — installing
    /// [`RuntimeOptions::default`] restores legacy behavior exactly.
    ///
    /// Thread-count installation is the caller's job (this crate does
    /// not link the thread pool): pass [`Self::thread_request`] to
    /// `mrp_runtime::set_threads`.
    pub fn install(&self) -> &Self {
        simd::set_scalar_override(self.no_simd);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_cache::policies::Lru;
    use mrp_cache::CacheConfig;

    #[test]
    fn builders_set_fields() {
        let o = RuntimeOptions::default().no_simd(true).threads(3);
        assert_eq!(o.no_simd, Some(true));
        assert_eq!(o.thread_request(), 3);
        assert_eq!(RuntimeOptions::default().thread_request(), 0);
    }

    #[test]
    fn with_cli_only_overrides_present_flags() {
        let o = RuntimeOptions::default().with_cli(false, 0);
        assert_eq!(o, RuntimeOptions::default());
        let o = RuntimeOptions::default().with_cli(true, 2);
        assert_eq!(o.no_simd, Some(true));
        assert_eq!(o.threads, Some(2));
    }

    #[test]
    fn install_pins_simd_to_scalar() {
        RuntimeOptions::default().no_simd(true).install();
        assert_eq!(simd::level(), simd::SimdLevel::Scalar);
        // An engine built without `.options()` must leave the pin alone.
        let _engine = crate::EngineConfig::new(CacheConfig::llc_single())
            .policy_with(|llc| Box::new(Lru::new(llc.sets(), llc.associativity())))
            .build();
        assert_eq!(simd::level(), simd::SimdLevel::Scalar);
        RuntimeOptions::default().install();
        assert_eq!(simd::level(), simd::env_level());
    }
}
