//! Command-line argument handling for the experiment binaries.
//!
//! Generic `--key value` parsing lives in [`mrp_runtime::cli::Args`];
//! this wrapper layers the experiment-stack resolution over it: run
//! scale, report sinks, telemetry manifests, and the typed
//! [`RuntimeOptions`] knobs.

use std::ops::Deref;

use mrp_core::RuntimeOptions;
use mrp_obs::RunManifest;

use crate::output::{ReportFormat, ReportSink};
use crate::runner::RunScale;

/// Parsed `--key value` arguments plus experiment-specific resolution.
///
/// Derefs to the generic [`mrp_runtime::cli::Args`], so the plain
/// getters (`get_u64`, `get_str`, `get_flag`, …) work unchanged.
#[derive(Debug, Clone, Default)]
pub struct Args {
    inner: mrp_runtime::cli::Args,
}

impl Deref for Args {
    type Target = mrp_runtime::cli::Args;

    fn deref(&self) -> &Self::Target {
        &self.inner
    }
}

impl Args {
    /// Parses the process arguments (see [`mrp_runtime::cli::Args::parse`]).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed or duplicated arguments.
    pub fn parse() -> Self {
        Args {
            inner: mrp_runtime::cli::Args::parse(),
        }
    }

    /// Parses from an explicit iterator (tests).
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        Args {
            inner: mrp_runtime::cli::Args::from_args(iter),
        }
    }

    /// Resolves the shared runtime knobs — `--no-simd`, `--threads` —
    /// into a typed [`RuntimeOptions`], installs it process-wide (SIMD
    /// dispatch, worker pool), and returns the resolved worker count.
    /// Absent flags defer to the legacy `MRP_NO_SIMD`/`MRP_THREADS`
    /// environment variables, so existing scripts keep working
    /// unchanged.
    pub fn init_runtime_options(&self) -> usize {
        let options = RuntimeOptions::default().with_cli(
            self.get_flag("no-simd", false),
            self.get_usize("threads", 0),
        );
        options.install();
        mrp_runtime::set_threads(options.thread_request());
        mrp_runtime::threads()
    }

    /// Resolves the shared scale flags (`--warmup`, `--measure`,
    /// `--seed`) against a driver-supplied default, usually
    /// [`RunScale::single_thread`] or [`RunScale::multi_core`].
    pub fn run_scale(&self, defaults: RunScale) -> RunScale {
        defaults
            .warmup(self.get_u64("warmup", defaults.warmup))
            .measure(self.get_u64("measure", defaults.measure))
            .seed(self.get_u64("seed", defaults.seed))
    }

    /// The report format selected by the shared `--format` flag
    /// (`text`, the default, `tsv`, or `jsonl`).
    pub fn report_format(&self) -> ReportFormat {
        ReportFormat::parse(&self.get_str("format", "text"))
    }

    /// A stdout [`ReportSink`] in the `--format`-selected encoding.
    pub fn report_sink(&self) -> Box<dyn ReportSink> {
        self.report_format().stdout_sink()
    }

    /// Resolves the shared telemetry flags: `--metrics` switches the
    /// `mrp_obs` registry on (counters, gauges, phase timers) and
    /// returns a [`RunManifest`] that [`finish_manifest`] writes to
    /// `--manifest-dir` (default `runs/`) when the driver exits.
    /// Without `--metrics`, telemetry stays off — the zero-cost default
    /// — and no manifest is produced.
    pub fn init_metrics(&self, bin: &str, seed: u64) -> Option<RunManifest> {
        if !self.get_flag("metrics", false) {
            mrp_obs::set_enabled(false);
            return None;
        }
        mrp_obs::set_enabled(true);
        Some(RunManifest::new(
            bin,
            seed,
            self.get_str("manifest-dir", "runs"),
        ))
    }
}

/// Writes a driver's run manifest (if `--metrics` produced one) and
/// reports the path on stderr, keeping stdout for the report itself.
pub fn finish_manifest(manifest: Option<RunManifest>) {
    let Some(manifest) = manifest else {
        return;
    };
    match manifest.finish() {
        Ok(path) => eprintln!("run manifest: {}", path.display()),
        Err(err) => eprintln!("warning: could not write run manifest: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::from_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn derefs_to_generic_getters() {
        let a = args(&["--instructions", "5000", "--bless"]);
        assert_eq!(a.get_u64("instructions", 1), 5000);
        assert!(a.get_flag("bless", false));
    }

    #[test]
    fn runtime_options_flags_install_process_wide() {
        // Sole owner of the process-global runtime overrides in this
        // test binary: each sub-case restores the env-deferred default.
        let threads = args(&["--no-simd", "--threads", "2"]).init_runtime_options();
        assert_eq!(threads, 2);
        assert_eq!(mrp_core::simd::level(), mrp_core::SimdLevel::Scalar);
        // Absent flags fall back to the environment.
        let auto = args(&[]).init_runtime_options();
        assert!(auto >= 1);
        assert_eq!(mrp_core::simd::level(), mrp_core::simd::env_level());
    }

    #[test]
    fn run_scale_overrides_only_given_flags() {
        let a = args(&["--measure", "5000", "--seed", "9"]);
        let scale = a.run_scale(RunScale::single_thread());
        assert_eq!(scale.warmup, RunScale::single_thread().warmup);
        assert_eq!(scale.measure, 5000);
        assert_eq!(scale.seed, 9);
        let mp = args(&["--warmup", "7"]).run_scale(RunScale::multi_core());
        assert_eq!(mp.warmup, 7);
        assert_eq!(mp.measure, RunScale::multi_core().measure);
        assert_eq!(mp.seed, 42);
    }

    #[test]
    fn report_format_flag_selects_sink() {
        assert_eq!(args(&[]).report_format(), ReportFormat::Text);
        assert_eq!(
            args(&["--format", "tsv"]).report_format(),
            ReportFormat::Tsv
        );
        assert_eq!(
            args(&["--format", "jsonl"]).report_format(),
            ReportFormat::Jsonl
        );
    }

    #[test]
    fn metrics_flag_gates_manifest_creation() {
        // Sole owner of the global obs flag in this test binary.
        let none = args(&[]).init_metrics("test_cli", 1);
        assert!(none.is_none());
        assert!(!mrp_obs::enabled());
        let some =
            args(&["--metrics", "--manifest-dir", "/tmp/mrp-cli-test"]).init_metrics("test_cli", 1);
        assert!(mrp_obs::enabled());
        let manifest = some.expect("--metrics yields a manifest");
        assert!(manifest.file_name().starts_with("test_cli-"));
        mrp_obs::set_enabled(false);
        // Dropping without finish() writes nothing.
        finish_manifest(None);
    }
}
