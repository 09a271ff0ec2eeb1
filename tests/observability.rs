//! Observability contract tests: the JSONL run manifest round-trips
//! through its own validator, and the telemetry layer never perturbs
//! simulation results — the committed goldens must be bit-identical with
//! `--metrics` on and off, and disabled counters must stay at zero.

use std::path::PathBuf;

use mrp_cache::CacheConfig;
use mrp_experiments::runner::{record, run_single};
use mrp_experiments::{PolicyKind, RunScale};
use mrp_obs::{Json, RunManifest};
use mrp_trace::workloads;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrp-obs-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn manifest_round_trips_through_validation() {
    let dir = scratch_dir("roundtrip");
    let mut manifest = RunManifest::new("obs_test", 7, &dir);
    manifest.meta("threads", Json::U64(3));
    manifest.meta("note", Json::Str("round-trip".into()));
    manifest.cell("zipf.hot", "LRU", &[("ipc", 1.25), ("mpki", 9.5)]);
    manifest.cell("zipf.hot", "MPPPB", &[("ipc", 1.5), ("mpki", 7.25)]);
    manifest.scalar("geomean_speedup.MPPPB", 1.2);
    let path = manifest.finish().expect("write manifest");

    assert_eq!(path.extension().and_then(|e| e.to_str()), Some("jsonl"));
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    assert!(
        name.starts_with("obs_test-") && name.contains("-7."),
        "file name {name} must embed bin and seed"
    );

    let text = std::fs::read_to_string(&path).expect("read back");
    let summary = mrp_obs::validate(&text).expect("schema-valid manifest");
    assert_eq!(summary.schema, mrp_obs::SCHEMA);
    assert_eq!(summary.bin, "obs_test");
    assert_eq!(summary.cells, 2);
    assert_eq!(summary.scalars, 1);

    // The meta line leads and carries the caller's extra fields.
    let meta = Json::parse(text.lines().next().unwrap()).expect("parse meta");
    assert_eq!(meta.get("seed").and_then(Json::as_u64), Some(7));
    assert_eq!(meta.get("threads").and_then(Json::as_u64), Some(3));
    assert_eq!(meta.get("note").and_then(Json::as_str), Some("round-trip"));

    // validate_dir sees the same file; a corrupt sibling fails the scan.
    assert_eq!(mrp_obs::validate_dir(&dir).expect("dir valid").len(), 1);
    std::fs::write(dir.join("bogus.jsonl"), "not json\n").unwrap();
    assert!(mrp_obs::validate_dir(&dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sole owner of the process-global telemetry flag in this test binary:
/// checks the disabled no-op contract and metrics-on/off bit-identity in
/// one sequence so no parallel test observes a half-toggled flag.
#[test]
fn metrics_toggle_is_invisible_to_results() {
    assert!(!mrp_obs::enabled(), "telemetry defaults to off");

    // Disabled counters and gauges never record.
    let counter = mrp_obs::counter("test.obs.gate.count");
    let gauge = mrp_obs::gauge("test.obs.gate.depth");
    counter.add(5);
    gauge.set(9);
    assert_eq!(counter.get(), 0, "disabled counter must stay zero");
    assert_eq!(gauge.get(), 0, "disabled gauge must stay zero");

    // The golden cells, metrics off.
    let scale = RunScale::single_thread().warmup(20_000).measure(80_000);
    let suite = workloads::suite();
    let cells: Vec<_> = ["zipf.hot", "stream.rw"]
        .iter()
        .map(|n| suite.iter().find(|w| w.name() == *n).expect("workload"))
        .collect();
    let llc = CacheConfig::llc_single();
    let run = |w: &&mrp_trace::Workload| {
        let r = run_single(&record(w, scale), PolicyKind::MpppbSingle.build(&llc));
        (r.ipc.to_bits(), r.mpki.to_bits())
    };
    let baseline: Vec<(u64, u64)> = cells.iter().map(run).collect();

    // Same cells with telemetry recording.
    mrp_obs::set_enabled(true);
    counter.incr();
    assert_eq!(counter.get(), 1, "enabled counter must record");
    let with_metrics: Vec<(u64, u64)> = cells.iter().map(run).collect();
    mrp_obs::set_enabled(false);

    assert_eq!(
        baseline, with_metrics,
        "telemetry must not perturb IPC/MPKI bits"
    );
}

#[test]
fn co_tune_rejects_an_unknown_half_before_tuning() {
    // Only `a` and `b` name halves of the split. Any other name must fail
    // before tuning, so no output or manifest is labelled with a half
    // that does not exist.
    let dir = scratch_dir("co-tune-half");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_co_tune"))
        .args(["--half", "c", "--metrics", "--manifest-dir"])
        .arg(&dir)
        .output()
        .expect("spawn co_tune");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "co_tune accepted --half c");
    assert!(stderr.contains("`a` or `b`"), "{stderr}");
    assert!(!stderr.contains("workloads:"), "tuning started: {stderr}");
    assert!(out.stdout.is_empty(), "co_tune printed a result");
    assert!(!dir.exists(), "co_tune wrote a manifest");
}

#[test]
fn manifest_check_rejects_the_deleted_bench_gate_flag() {
    // `runs/` under the working directory holds one valid manifest, so
    // an ignored `--bench-gate` would fall through to validating it and
    // pass. The flag must fail instead.
    let dir = scratch_dir("bench-gate-flag");
    RunManifest::new("obs_test", 1, dir.join("runs"))
        .finish()
        .expect("write manifest");
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_manifest_check"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn manifest_check")
    };
    assert!(
        run(&[]).status.success(),
        "the runs/ manifest must validate"
    );
    let out = run(&["--bench-gate", "fresh.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "manifest_check accepted --bench-gate"
    );
    assert!(stderr.contains("unknown flag --bench-gate"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drivers_reject_misspelt_flags() {
    // An ignored flag would run the default study instead, e.g. a
    // misspelt `--instrutions` at the default 2M instructions. Each must
    // fail before any work starts. The misspelt flag comes first; the
    // rest is a tiny scale, so a driver that wrongly accepts the flag
    // fails in seconds instead of running its whole default study.
    let cases = [
        (
            env!("CARGO_BIN_EXE_table3_contrib"),
            "--instrutions 100000 --workloads 1 --instructions 1000",
        ),
        (
            env!("CARGO_BIN_EXE_fig6_st_speedup"),
            "--worklods 4 --workloads 1 --warmup 1000 --measure 1000",
        ),
        (
            env!("CARGO_BIN_EXE_fig6_st_speedup"),
            "--min 0 --workloads 1 --warmup 1000 --measure 1000",
        ),
        (
            env!("CARGO_BIN_EXE_fig9_assoc"),
            "--mix 1 --mixes 1 --warmup 1000 --measure 1000",
        ),
        (env!("CARGO_BIN_EXE_tables_features"), "--threds 2"),
        (
            env!("CARGO_BIN_EXE_verify"),
            "--sed 7 --accesses 1000 --jobs 1 --replay-workloads 0",
        ),
        (env!("CARGO_BIN_EXE_simd_level"), "--level avx2"),
    ];
    for (bin, line) in cases {
        let args: Vec<&str> = line.split_whitespace().collect();
        let flag = args[0];
        let out = std::process::Command::new(bin)
            .args(&args)
            .output()
            .expect("spawn driver");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bin} accepted {flag}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
        assert!(out.stdout.is_empty(), "{bin} printed a report");
    }
}
