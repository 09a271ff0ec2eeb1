//! The repository benchmark: one command per workload, printing every
//! end-to-end metric (or, traced, every per-layer metric) as the last
//! line of standard output, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_llc --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `NOTES.md` for why the workloads, members and metrics are what
//! they are.

mod drive;
mod host;
mod probe;
mod report;
mod serve;
mod sim;
mod spans;
mod sweep;

use std::path::Path;
use std::process::ExitCode;

use report::{result_line, Metrics};
use spans::{Clock, Step};

/// Times each workload's set-up is made in an untraced run; the median
/// is reported, so one slow set-up does not move `setup_s`. The repeats
/// are spread evenly over the measured time, each rebuilding the state
/// the rounds use: the host's speed drifts over tens of seconds, and
/// set-ups made back to back would all sample one moment of it. Traced
/// runs report no `setup_s` and set up once.
pub const SETUP_REPEATS: usize = 5;

/// Whether the next set-up repeat is due, with `done` made and `progress`
/// (0 to 1) of the run's measured part gone. `peak_rss_mb` is read before
/// the first repeat: the repeats rebuild state the run already holds,
/// and the heap fragmentation they leave is the benchmark's, not the
/// program's.
pub fn setup_due(done: usize, progress: f64) -> bool {
    done < SETUP_REPEATS && progress * SETUP_REPEATS as f64 >= done as f64
}

const WORKLOADS: [&str; 4] = ["sim_llc", "sim_core", "replay_sweep", "serve_fleet"];

/// Output checks: each one is an attempted operation, each failure a
/// failed one.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Spans of the traced run (empty untraced).
    pub steps: Vec<Step>,
    /// Step-time samples behind `step_ms_p50`/`step_ms_p90`.
    pub samples: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root");
    let host = host::Fingerprint::read(root);
    let clock = Clock::new(args.trace);
    let outcome = match args.workload.as_str() {
        "sim_llc" => sim::run(&sim::SIM_LLC, args.seed, args.seconds, &clock),
        "sim_core" => sim::run(&sim::SIM_CORE, args.seed, args.seconds, &clock),
        "replay_sweep" => sweep::run(args.seed, args.seconds, &clock),
        _ => serve::run(args.seed, args.seconds, &clock),
    };
    let stamp = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"threads\": {}, \"step_samples\": {}, \
         \"host\": {{\"cpu\": \"{}\", \"nproc\": {}, \"simd\": \"{}\", \"rev\": \"{}\"}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        drive::THREADS,
        outcome.samples,
        host.cpu.replace('"', "'"),
        host.nproc,
        host.simd,
        host.rev
    );
    if args.trace {
        let dir = root.join("perfbench").join("out");
        let file = dir.join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(
                &file,
                format!("# {stamp}\n{}", spans::render(&outcome.steps)),
            )
        });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{stamp}");
    println!(
        "{}",
        result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
