//! Command-line argument handling for the experiment binaries.
//!
//! Generic `--key value` parsing lives in [`mrp_runtime::cli::Args`];
//! this wrapper layers the experiment-stack resolution over it: run
//! scale, telemetry manifests, and the typed [`RuntimeOptions`] knobs.

use std::ops::Deref;

use mrp_core::RuntimeOptions;
use mrp_obs::{Json, RunManifest};

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
    /// Parses from an explicit iterator (tests).
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        Args {
            inner: mrp_runtime::cli::Args::from_args(iter),
        }
    }

    /// Parses the process arguments (see
    /// [`mrp_runtime::cli::Args::parse`]), rejecting any `--key` not in
    /// `known`, so a stale or misspelt flag fails instead of being
    /// silently ignored. Every binary parses its arguments this way.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on an unknown flag, or on malformed or
    /// duplicated arguments.
    pub fn parse_known(known: &[&str]) -> Self {
        Self::from_args_known(std::env::args().skip(1), known)
    }

    /// [`Args::parse_known`] from an explicit iterator (tests).
    fn from_args_known<I: IntoIterator<Item = String>>(iter: I, known: &[&str]) -> Self {
        let args: Vec<String> = iter.into_iter().collect();
        // Values never start with `--` (the generic parser reads such a
        // token as the next key), so these are exactly the given keys.
        if let Some(key) = args
            .iter()
            .filter_map(|a| a.strip_prefix("--"))
            .find(|key| !known.contains(key))
        {
            if known.is_empty() {
                panic!("unknown flag --{key}; this binary takes no flags");
            }
            panic!(
                "unknown flag --{key}; this binary reads --{}",
                known.join(", --")
            );
        }
        Self::from_args(args)
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
///
/// The `meta` line also records the dispatched SIMD level
/// (`simd_level`) and the process's peak resident set size so far
/// (`peak_rss_bytes`, Linux's `VmHWM`), which is omitted where
/// `/proc/self/status` cannot be read.
pub fn finish_manifest(manifest: Option<RunManifest>) {
    let Some(mut manifest) = manifest else {
        return;
    };
    manifest.meta(
        "simd_level",
        Json::Str(mrp_core::simd::level().name().into()),
    );
    if let Some(bytes) = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| peak_rss_bytes(&status))
    {
        manifest.meta("peak_rss_bytes", Json::U64(bytes));
    }
    match manifest.finish() {
        Ok(path) => eprintln!("run manifest: {}", path.display()),
        Err(err) => eprintln!("warning: could not write run manifest: {err}"),
    }
}

/// The `VmHWM` (peak resident set size) of a `/proc/<pid>/status` text,
/// in bytes.
fn peak_rss_bytes(status: &str) -> Option<u64> {
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kib * 1024)
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
    fn known_flags_parse_as_usual() {
        let given = ["--samples", "3", "--metrics", "--delta", "-5"].map(String::from);
        let a = Args::from_args_known(given, &["samples", "metrics", "delta"]);
        assert_eq!(a.get_u64("samples", 1), 3);
        assert!(a.get_flag("metrics", false));
        assert_eq!(a.get_str("delta", "0"), "-5");
    }

    #[test]
    #[should_panic(expected = "unknown flag --instrutions")]
    fn misspelt_flag_panics() {
        let given = ["--instrutions", "100000"].map(String::from);
        Args::from_args_known(given, &["workloads", "instructions", "seed"]);
    }

    #[test]
    fn peak_rss_reads_vm_hwm() {
        let status = "Name:\tfig4\nVmPeak:\t  300000 kB\nVmHWM:\t  215756 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(peak_rss_bytes(status), Some(215_756 * 1024));
        assert_eq!(peak_rss_bytes("Name:\tfig4\n"), None);
        assert_eq!(peak_rss_bytes("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn finished_manifest_records_simd_level_and_peak_rss() {
        let dir = std::env::temp_dir().join(format!("mrp-cli-rss-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        finish_manifest(Some(RunManifest::new("test_rss", 1, &dir)));
        let entry = std::fs::read_dir(&dir)
            .expect("manifest dir")
            .next()
            .expect("one manifest")
            .expect("dir entry");
        let text = std::fs::read_to_string(entry.path()).expect("read manifest");
        let meta = Json::parse(text.lines().next().expect("meta line")).expect("meta json");
        // Another test in this binary switches the level, so check only
        // that a level name was recorded.
        let level = meta.get("simd_level").and_then(Json::as_str);
        assert!(
            matches!(level, Some("scalar" | "avx2" | "avx512")),
            "{level:?}"
        );
        if std::fs::read_to_string("/proc/self/status").is_ok() {
            assert!(meta
                .get("peak_rss_bytes")
                .and_then(Json::as_u64)
                .is_some_and(|b| b > 0));
        }
        let _ = std::fs::remove_dir_all(&dir);
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
