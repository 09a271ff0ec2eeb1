//! CI check binary: run-manifest schema validation.
//!
//! **Manifest mode** (default): validates every JSONL run manifest in a
//! directory against the `mrp-run-manifest-v1` schema. CI runs this
//! after the smoke drivers so a malformed manifest fails the build
//! instead of silently rotting in the uploaded artifact.
//!
//! **Fleet mode** (`--fleet FILE`): validates a serving-fleet manifest
//! against the `mrp-fleet-manifest-v1` schema and fails if any shard
//! processed no accesses (the `serve --smoke` CI contract).
//!
//! Performance is gated elsewhere, by `bench_snapshot` itself.
//!
//! Usage: `manifest_check [--dir runs]`
//!        `manifest_check --fleet runs/fleet.json`
//!
//! Any other flag is an error.

use std::path::Path;
use std::process::ExitCode;

use mrp_experiments::Args;

/// `--fleet` mode: schema-check one serving-fleet manifest and require
/// every shard to have made progress (the serve smoke contract).
fn run_fleet_check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("manifest_check: read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let manifest = match mrp_obs::fleet::validate(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("manifest_check: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(idle) = manifest.shards.iter().find(|s| s.processed == 0) {
        eprintln!(
            "manifest_check: {path}: shard {} processed no accesses",
            idle.shard
        );
        return ExitCode::FAILURE;
    }
    println!(
        "{path}: ok ({} for seed {}: {} tenants / {} shards, {} rounds, {} accesses, \
         {:.1}M/s per-core drain)",
        mrp_obs::FLEET_SCHEMA,
        manifest.seed,
        manifest.tenants,
        manifest.shards.len(),
        manifest.rounds,
        manifest.processed(),
        manifest.accesses_per_sec() / 1e6,
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = Args::parse_known(&["dir", "fleet"]);
    let fleet_path = args.get_str("fleet", "");
    if !fleet_path.is_empty() {
        return run_fleet_check(&fleet_path);
    }
    let dir = args.get_str("dir", "runs");
    let summaries = match mrp_obs::validate_dir(Path::new(&dir)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("manifest_check: {e}");
            return ExitCode::FAILURE;
        }
    };
    if summaries.is_empty() {
        eprintln!("manifest_check: no *.jsonl manifests in {dir}");
        return ExitCode::FAILURE;
    }
    for (file, s) in &summaries {
        println!(
            "{file}: ok ({} from {}: {} cells, {} scalars, {} phases, {} counters)",
            s.schema, s.bin, s.cells, s.scalars, s.phases, s.counters
        );
    }
    println!("# {} manifest(s) valid", summaries.len());
    ExitCode::SUCCESS
}
