//! The self-exec worker: one `(workload, policy)` cell per process.
//!
//! `orchestrate worker --spec JSON --manifest-dir DIR --spec-hash HEX`
//! runs a [`SELF_BIN`] job in its own OS process, so the crash-injection
//! tests can SIGKILL/abort workers without touching the driver binaries.
//! The result is a standard run manifest (cell with `mpki`/`ipc`)
//! stamped with the job's spec hash — written via tmp + rename so a
//! worker killed mid-write can never leave a parsable-but-incomplete
//! manifest for resume to trust.
//!
//! Crash injection (tests only): when `MRP_ORCH_CRASH_JOB` names this
//! worker's job id and the `MRP_ORCH_CRASH_MARKER` file does not exist
//! yet, the worker writes the marker and aborts — exactly one induced
//! crash per campaign, after which retries succeed.
//!
//! [`SELF_BIN`]: mrp_experiments::SELF_BIN

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use mrp_experiments::runner::run_single_kind;
use mrp_experiments::{Args, JobSpec, PolicyKind, RunScale};
use mrp_obs::{Json, RunManifest};

/// Entry point for the `worker` subcommand.
pub fn run_worker(args: &Args) -> ExitCode {
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("orchestrate worker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let spec_text = args.get_str("spec", "");
    if spec_text.is_empty() {
        return Err("missing --spec".into());
    }
    let spec = JobSpec::from_json(&Json::parse(&spec_text)?)?;
    maybe_crash(&spec.id);

    let workload_name = spec.get_arg("workload").ok_or("spec missing workload")?;
    let policy_name = spec.get_arg("policy").ok_or("spec missing policy")?;
    let seed = spec_u64(&spec, "seed", 1)?;
    let scale = RunScale::single_thread()
        .warmup(spec_u64(&spec, "warmup", 2_000)?)
        .measure(spec_u64(&spec, "measure", 8_000)?)
        .seed(seed);
    // Result-neutral padding so the crash tests can reliably land a
    // SIGKILL mid-campaign even at tiny debug-profile scales.
    let spin_ms = spec_u64(&spec, "spin-ms", 0)?;
    if spin_ms > 0 {
        std::thread::sleep(Duration::from_millis(spin_ms));
    }

    let suite = mrp_trace::workloads::suite();
    let workload = suite
        .iter()
        .find(|w| w.name() == workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;
    let kind = PolicyKind::from_name(policy_name)
        .ok_or_else(|| format!("unknown policy {policy_name:?}"))?;
    let result = run_single_kind(workload, kind, scale);

    // `orch-<job id>` keeps worker manifests from colliding with driver
    // manifests for the same seed + second.
    let manifest_dir = args.get_str("manifest-dir", "runs");
    let mut manifest = RunManifest::new(&format!("orch-{}", spec.id), seed, &manifest_dir);
    let spec_hash = args.get_str("spec-hash", "");
    if !spec_hash.is_empty() {
        manifest.meta("spec_hash", Json::Str(spec_hash));
    }
    manifest.meta("job", Json::Str(spec.id.clone()));
    manifest.cell(
        workload_name,
        policy_name,
        &[("mpki", result.mpki), ("ipc", result.ipc)],
    );

    let dir = Path::new(&manifest_dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(manifest.file_name());
    let tmp = dir.join(format!("{}.tmp", manifest.file_name()));
    std::fs::write(&tmp, manifest.render()).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("run manifest: {}", path.display());
    Ok(())
}

/// One-shot induced crash for the injection tests (see module docs).
fn maybe_crash(job_id: &str) {
    let (Ok(target), Ok(marker)) = (
        std::env::var("MRP_ORCH_CRASH_JOB"),
        std::env::var("MRP_ORCH_CRASH_MARKER"),
    ) else {
        return;
    };
    if target != job_id || Path::new(&marker).exists() {
        return;
    }
    let _ = std::fs::write(&marker, b"crashed\n");
    std::process::abort();
}

/// Parses a numeric spec argument (the spec carries strings only).
fn spec_u64(spec: &JobSpec, key: &str, default: u64) -> Result<u64, String> {
    match spec.get_arg(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("spec arg {key}={v:?} is not an integer")),
    }
}
