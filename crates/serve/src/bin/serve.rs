//! The serving daemon: `serve [run] ...` drives a sharded fleet,
//! `serve status ...` renders the latest fleet manifest.
//!
//! ```text
//! serve run --tenants 16 --shards 4 --rounds 200 --quota 65536 \
//!           --policy mpppb --seed 42 --manifest-path runs/fleet.json
//! serve status --manifest-path runs/fleet.json
//! serve run --smoke            # bounded CI run, validates its own manifest
//! ```
//!
//! `run` executes `--warmup` cache-warming rounds (excluded from the
//! reported drain throughput), then rounds until `--rounds` more are
//! done (default: until `--duration` seconds of wall clock), rewriting
//! the fleet manifest every `--manifest-every` rounds (atomic
//! temp-file-then-rename, so `status` never reads a torn snapshot).
//! The shared
//! runtime knobs (`--no-simd`, `--threads`) resolve
//! through the typed `RuntimeOptions` with the legacy environment
//! variables as fallback. The final stdout line is machine-readable:
//! `<drain accesses/sec> <wall accesses/sec>`.

use std::path::Path;
use std::process::ExitCode;

use mrp_baselines::PolicyKind;
use mrp_core::RuntimeOptions;
use mrp_runtime::Args;
use mrp_serve::{Fleet, FleetConfig};

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.first().is_some_and(|a| !a.starts_with("--")) {
        argv.remove(0)
    } else {
        "run".to_string()
    };
    let args = Args::from_args(argv);
    match command.as_str() {
        "run" => run(&args),
        "status" => status(&args),
        other => {
            eprintln!("unknown subcommand {other:?} (expected `run` or `status`)");
            ExitCode::FAILURE
        }
    }
}

fn manifest_path(args: &Args) -> String {
    args.get_str("manifest-path", "runs/fleet.json")
}

fn run(args: &Args) -> ExitCode {
    let smoke = args.get_flag("smoke", false);
    let options = RuntimeOptions::default().with_cli(
        args.get_flag("no-simd", false),
        args.get_usize("threads", 0),
    );
    mrp_runtime::set_threads(options.thread_request());
    if args.get_flag("metrics", smoke) {
        mrp_obs::set_enabled(true);
    }

    let policy_name = args.get_str("policy", "mpppb");
    let Some(policy) = PolicyKind::from_name(&policy_name) else {
        eprintln!("unknown policy {policy_name:?}");
        return ExitCode::FAILURE;
    };
    let mut config = FleetConfig::new(
        args.get_usize("tenants", if smoke { 8 } else { 16 }),
        args.get_usize("shards", if smoke { 2 } else { 4 }),
        args.get_u64("seed", 42),
    );
    config.policy = policy;
    config.options = options;
    config.traffic.round_quota = args.get_u64("quota", if smoke { 16 * 1024 } else { 64 * 1024 });
    config.track_confidence = args.get_flag("confidence", true);
    let rounds = args.get_u64("rounds", if smoke { 64 } else { 0 });
    let warmup = args.get_u64("warmup", if smoke { 0 } else { 8 });
    let duration_s = args.get_u64("duration", 10);
    let manifest_every = args.get_u64("manifest-every", 16).max(1);
    let path = manifest_path(args);

    let mut fleet = Fleet::new(config);
    eprintln!(
        "serve: {} tenants on {} shards, policy {}, quota {}/round, {} workers",
        config.traffic.tenants,
        config.shards,
        config.policy.name(),
        config.traffic.round_quota,
        fleet.workers(),
    );
    // Warmup rounds fill the cold LLCs and predictor tables, then the
    // drain window reopens so reported throughput is the sustained
    // steady-state rate (the wall rate still covers the whole run).
    fleet.run_rounds(warmup);
    fleet.reset_drain_window();
    let started = std::time::Instant::now();
    loop {
        fleet.run_round();
        if fleet.rounds().is_multiple_of(manifest_every) {
            if let Err(err) = write_manifest(&fleet, &path) {
                eprintln!("error: could not write fleet manifest: {err}");
                return ExitCode::FAILURE;
            }
        }
        let done = if rounds > 0 {
            fleet.rounds() >= warmup + rounds
        } else {
            started.elapsed().as_secs() >= duration_s
        };
        if done {
            break;
        }
    }
    if let Err(err) = write_manifest(&fleet, &path) {
        eprintln!("error: could not write fleet manifest: {err}");
        return ExitCode::FAILURE;
    }

    let manifest = fleet.manifest();
    eprintln!(
        "serve: {} rounds, {} accesses, {:.1}M/s per-core drain ({:.1}M/s wall incl. traffic gen)",
        fleet.rounds(),
        fleet.processed(),
        fleet.drain_accesses_per_sec() / 1e6,
        fleet.wall_accesses_per_sec() / 1e6,
    );
    for shard in &manifest.shards {
        eprintln!(
            "  shard {}: {} tenants, {} accesses, hit rate {:.3}, {:.1}M/s busy",
            shard.shard,
            shard.tenants,
            shard.processed,
            shard.hit_rate(),
            shard.accesses_per_sec / 1e6,
        );
    }
    // Machine-readable result line: the per-core drain rate (the bench
    // snapshot's number) then the wall rate including traffic generation.
    println!(
        "{} {}",
        fleet.drain_accesses_per_sec(),
        fleet.wall_accesses_per_sec()
    );

    if smoke {
        // The smoke contract: the written manifest must validate and
        // every shard must have made progress.
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("smoke: cannot re-read {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let parsed = match mrp_obs::fleet::validate(&text) {
            Ok(parsed) => parsed,
            Err(err) => {
                eprintln!("smoke: emitted manifest is invalid: {err}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(idle) = parsed.shards.iter().find(|s| s.processed == 0) {
            eprintln!("smoke: shard {} processed nothing", idle.shard);
            return ExitCode::FAILURE;
        }
        eprintln!(
            "smoke: manifest valid, all {} shards active",
            parsed.shards.len()
        );
    }
    ExitCode::SUCCESS
}

fn write_manifest(fleet: &Fleet, path: &str) -> std::io::Result<()> {
    let path = Path::new(path);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, fleet.manifest().render())?;
    std::fs::rename(&tmp, path)
}

fn status(args: &Args) -> ExitCode {
    let path = manifest_path(args);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("status: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let manifest = match mrp_obs::fleet::validate(&text) {
        Ok(manifest) => manifest,
        Err(err) => {
            eprintln!("status: {path} is not a valid fleet manifest: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "fleet: {} tenants / {} shards, policy {}, {} rounds, {} accesses, {:.1}M/s per-core drain",
        manifest.tenants,
        manifest.shards.len(),
        manifest.policy,
        manifest.rounds,
        manifest.processed(),
        manifest.accesses_per_sec() / 1e6,
    );
    println!(
        "shard  tenants  processed     hit-rate  queue-peak  M-acc/s  confidence (reuse→bypass)"
    );
    for shard in &manifest.shards {
        println!(
            "{:>5}  {:>7}  {:>12}  {:>8.3}  {:>10}  {:>7.1}  {}",
            shard.shard,
            shard.tenants,
            shard.processed,
            shard.hit_rate(),
            shard.queue_depth_peak,
            shard.accesses_per_sec / 1e6,
            sparkline(&shard.confidence),
        );
    }
    ExitCode::SUCCESS
}

/// Renders a histogram as a compact unicode sparkline (`·` for empty
/// bins, `▁`–`█` scaled to the largest bin); `-` when tracking was off.
fn sparkline(bins: &[u64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let Some(&max) = bins.iter().max() else {
        return "-".to_string();
    };
    if max == 0 {
        return "·".repeat(bins.len());
    }
    bins.iter()
        .map(|&b| {
            if b == 0 {
                '·'
            } else {
                LEVELS[((b * (LEVELS.len() as u64 - 1)) / max) as usize]
            }
        })
        .collect()
}
