//! Golden-file plumbing for the golden-backed drivers.
//!
//! The Fig. 6 matrix, ROC (Figs. 1/8), feature-search (Fig. 3),
//! multi-programmed (Figs. 4/5), associativity-sweep (Fig. 9), ablation
//! (Fig. 10), and feature-contribution (Table 3) drivers promise deterministic, bit-identical outputs for a given seed. Each
//! gets a reduced-scale golden matrix in `results/`, regenerated only
//! with the driver's `--bless` flag (the tests never write one), in a
//! shared format: a trace fingerprint line followed by rows
//! carrying exact `f64::to_bits` values plus a human comment.
//!
//! The fingerprint line pins the trace streams: it folds the first
//! accesses of four generators, which depend on the vendored `rand`. A
//! fingerprint mismatch therefore fails like any other drift: it means a
//! generator or `rand` changed, and every value below it is suspect.
//!
//! Two consumers share the comparison logic ([`diff_against_committed`]
//! / [`GoldenOutcome`]): the tier-1 tests `tests/golden.rs` and
//! `tests/golden_tables.rs` ([`check_against_committed`] panics on
//! drift) and the drivers' `--golden-check` mode ([`golden_mode`] turns
//! [`golden_check_cli`]'s pass/fail into a process exit code, the same
//! check from the command line).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use mrp_obs::Json;
use mrp_trace::workloads;

use crate::ablation;
use crate::assoc_sweep;
use crate::feature_table;
use crate::multi;
use crate::roc;
use crate::runner::{mpppb_cv_policy, record, run_single, RunScale};
use crate::search_curve::{self, SearchParams};
use crate::PolicyKind;

/// Workloads folded into the trace fingerprint (a stable, representative
/// sample of the suite).
const FINGERPRINT_WORKLOADS: [&str; 4] = ["scanhot.protect", "loop.edge", "zipf.hot", "stream.rw"];

/// Absolute path of a golden file in `results/`.
pub fn results_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{file}"))
}

/// Fingerprint of the access streams behind a golden matrix: FNV-folds
/// the first 256 accesses of each fingerprint workload at `seed`.
/// Identifies the trace generator + rand implementation, not the cache
/// stack under test.
pub fn trace_fingerprint(seed: u64) -> u64 {
    let suite = workloads::suite();
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    for name in FINGERPRINT_WORKLOADS {
        let w = suite.iter().find(|w| w.name() == name).expect("workload");
        for access in w.trace(seed).take(256) {
            for v in [access.pc, access.address] {
                fp ^= v;
                fp = fp.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    fp
}

/// Seed of the Fig. 6 golden run.
pub const FIG6_SEED: u64 = 1;

/// Policies in the Fig. 6 golden matrix (plus the `mpppb-cv` row).
const FIG6_KINDS: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::MpppbSingle];

/// Renders the reduced-scale Fig. 6 golden matrix: MPKI/IPC per
/// (workload × policy) over the fingerprint workloads, exact to the bit.
pub fn fig6_golden() -> String {
    let scale = RunScale::single_thread()
        .warmup(50_000)
        .measure(200_000)
        .seed(FIG6_SEED);
    let suite = workloads::suite();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# fig6 golden matrix (reduced scale: warmup 50k / measure 200k, seed {FIG6_SEED})"
    );
    let _ = writeln!(
        out,
        "# regenerate: cargo run -p mrp-experiments --bin fig6_st_speedup -- --bless"
    );
    let _ = writeln!(out, "fingerprint {:016x}", trace_fingerprint(FIG6_SEED));
    for name in FINGERPRINT_WORKLOADS {
        let w = suite.iter().find(|w| w.name() == name).expect("workload");
        let rec = record(w, scale);
        let llc = mrp_cache::CacheConfig::llc_single();
        let mut rows: Vec<(String, f64, f64)> = FIG6_KINDS
            .iter()
            .map(|kind| {
                let r = run_single(&rec, kind.build(&llc));
                (kind.name().to_string(), r.mpki, r.ipc)
            })
            .collect();
        let cv = run_single(&rec, mpppb_cv_policy(w));
        rows.push(("mpppb-cv".to_string(), cv.mpki, cv.ipc));
        for (policy, mpki, ipc) in rows {
            let _ = writeln!(
                out,
                "{name} {policy} {:016x} {:016x} # mpki={mpki:.4} ipc={ipc:.4}",
                mpki.to_bits(),
                ipc.to_bits()
            );
        }
    }
    out
}

/// Seed of the ablation golden run.
pub const ABLATION_SEED: u64 = 5;

/// Renders the reduced-scale Fig. 10 ablation golden matrix.
pub fn ablation_golden() -> String {
    let scale = RunScale::multi_core()
        .warmup(10_000)
        .measure(50_000)
        .seed(ABLATION_SEED);
    let result = ablation::run(scale, 1, 2);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# fig10 ablation golden (reduced scale: warmup 10k / measure 50k, 1 mix, 2 features, seed {ABLATION_SEED})"
    );
    let _ = writeln!(
        out,
        "# regenerate: cargo run -p mrp-experiments --bin fig10_ablation -- --bless"
    );
    let _ = writeln!(out, "fingerprint {:016x}", trace_fingerprint(ABLATION_SEED));
    let _ = writeln!(
        out,
        "(original) {:016x} # speedup={:.6}",
        result.original.to_bits(),
        result.original
    );
    for (feature, speedup) in &result.omitted {
        let _ = writeln!(
            out,
            "{} {:016x} # speedup={speedup:.6}",
            feature.replace(' ', "_"),
            speedup.to_bits()
        );
    }
    out
}

/// Seed of the Table 3 golden run.
pub const TABLE3_SEED: u64 = 99;

/// Renders the reduced-scale Table 3 feature-contribution golden matrix.
pub fn table3_golden() -> String {
    let rows = feature_table::run(2, 150_000, TABLE3_SEED);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# table3 contribution golden (reduced scale: 2 workloads, 150k instructions, seed {TABLE3_SEED})"
    );
    let _ = writeln!(
        out,
        "# regenerate: cargo run -p mrp-experiments --bin table3_contrib -- --bless"
    );
    let _ = writeln!(out, "fingerprint {:016x}", trace_fingerprint(TABLE3_SEED));
    for r in &rows {
        let _ = writeln!(
            out,
            "{} {} {:016x} {:016x} # without={:.4} with={:.4}",
            r.feature.replace(' ', "_"),
            r.workload,
            r.mpki_without.to_bits(),
            r.mpki_with.to_bits(),
            r.mpki_without,
            r.mpki_with
        );
    }
    out
}

/// Seed of the ROC golden run.
pub const ROC_SEED: u64 = 1;

/// Renders the reduced-scale ROC golden matrix: every predictor's mean
/// (FPR, TPR) per threshold over the first nine suite workloads, exact
/// to the bit. The three streams that open the suite never reuse a
/// block and the four loops after them ignore the seed; the two pointer
/// chases that follow make the rows depend on it, so nine is the
/// shortest prefix where a mis-wired seed shows.
pub fn roc_golden() -> String {
    let scale = RunScale::single_thread()
        .warmup(20_000)
        .measure(100_000)
        .seed(ROC_SEED);
    let curves = roc::run(scale, 9);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# fig_roc golden (reduced scale: 9 workloads, warmup 20k / measure 100k, seed {ROC_SEED})"
    );
    let _ = writeln!(
        out,
        "# regenerate: cargo run -p mrp-experiments --bin fig_roc -- --bless"
    );
    let _ = writeln!(out, "fingerprint {:016x}", trace_fingerprint(ROC_SEED));
    for curve in &curves {
        for &(threshold, fpr, tpr) in &curve.points {
            let _ = writeln!(
                out,
                "{} {threshold} {:016x} {:016x} # fpr={fpr:.4} tpr={tpr:.4}",
                curve.predictor,
                fpr.to_bits(),
                tpr.to_bits()
            );
        }
    }
    out
}

/// Seed of the Fig. 4 golden run (mix draw and standalone traces).
pub const FIG4_SEED: u64 = 42;

/// Renders the reduced-scale Fig. 4/5 golden matrix: weighted speedup
/// over LRU and MPKI per policy for one 4-core test mix (drawn after
/// the drivers' 16 training mixes). The scale is the smallest at which
/// the shared 8MB LLC evicts enough for every policy row to differ from
/// LRU; below it each row would only pin the trace and timing model.
pub fn fig4_golden() -> String {
    let scale = RunScale::multi_core()
        .warmup(50_000)
        .measure(300_000)
        .seed(FIG4_SEED);
    let matrix = multi::run(scale, 1, 16);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# fig4 golden (reduced scale: warmup 50k / measure 300k, 1 mix, seed {FIG4_SEED})"
    );
    let _ = writeln!(
        out,
        "# regenerate: cargo run -p mrp-experiments --bin fig4_mp_speedup -- --bless"
    );
    let _ = writeln!(out, "fingerprint {:016x}", trace_fingerprint(FIG4_SEED));
    for row in &matrix.rows {
        for (policy, mpki) in &row.mpkis {
            let speedup = row
                .speedups
                .iter()
                .find(|(name, _)| name == policy)
                .map_or(1.0, |&(_, s)| s);
            let _ = writeln!(
                out,
                "{} {policy} {:016x} {:016x} # speedup={speedup:.6} mpki={mpki:.4}",
                row.label,
                speedup.to_bits(),
                mpki.to_bits()
            );
        }
    }
    out
}

/// Seed of the Fig. 3 golden run (traces, random sets, hill climbing).
pub const FIG3_SEED: u64 = 17;

/// Renders the reduced-scale Fig. 3 golden: the LRU and MIN reference
/// lines, every random candidate's average MPKI and the hill-climbed
/// result over the first three workloads of tuning half A, exact to the
/// bit. It pins the fast evaluator's recordings and MPKI-only replay.
pub fn fig3_golden() -> String {
    let params = SearchParams {
        candidates: 4,
        workload_count: 3,
        instructions: 300_000,
        patience: 2,
        max_moves: 3,
        seed: FIG3_SEED,
    };
    let curve = search_curve::run(params);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# fig3 search golden (reduced scale: 3 workloads, 300k instructions, 4 candidates, 3 moves, seed {FIG3_SEED})"
    );
    let _ = writeln!(
        out,
        "# regenerate: cargo run -p mrp-experiments --bin fig3_search -- --bless"
    );
    let _ = writeln!(out, "fingerprint {:016x}", trace_fingerprint(FIG3_SEED));
    let mut line = |label: &str, mpki: f64| {
        let _ = writeln!(out, "{label} {:016x} # mpki={mpki:.4}", mpki.to_bits());
    };
    line("lru", curve.lru_mpki);
    line("min", curve.min_mpki);
    for (i, &mpki) in curve.random_mpkis.iter().enumerate() {
        line(&format!("random.{i}"), mpki);
    }
    let (tried, accepted) = curve.hillclimb_moves;
    line(
        &format!("hillclimbed.{tried}.{accepted}"),
        curve.hillclimbed_mpki,
    );
    out
}

/// Seed of the Fig. 9 golden run (mix draw and standalone traces).
pub const FIG9_SEED: u64 = 42;

/// Renders the reduced-scale Fig. 9 golden: geomean weighted speedup
/// over LRU at uniform associativities 1 and 10 and for the original
/// variable-associativity set, on one mix, exact to the bit. It pins the
/// sweep and the standalone IPCs its speedups divide by.
pub fn fig9_golden() -> String {
    let scale = RunScale::multi_core()
        .warmup(100_000)
        .measure(500_000)
        .seed(FIG9_SEED);
    let sweep = assoc_sweep::run(scale, 1, 9);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# fig9 associativity golden (reduced scale: warmup 100k / measure 500k, 1 mix, A step 9, seed {FIG9_SEED})"
    );
    let _ = writeln!(
        out,
        "# regenerate: cargo run -p mrp-experiments --bin fig9_assoc -- --bless"
    );
    let _ = writeln!(out, "fingerprint {:016x}", trace_fingerprint(FIG9_SEED));
    let rows = sweep
        .uniform
        .iter()
        .map(|&(a, speedup)| (format!("A={a}"), speedup))
        .chain(std::iter::once(("original".to_string(), sweep.original)));
    for (label, speedup) in rows {
        let _ = writeln!(
            out,
            "{label} {:016x} # speedup={speedup:.6}",
            speedup.to_bits()
        );
    }
    out
}

/// Outcome of comparing a freshly rendered golden against the committed
/// file, without deciding pass/fail policy (the test harness panics on
/// drift; the drivers' `--golden-check` mode turns it into an exit
/// code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenOutcome {
    /// Every significant line matches bit-for-bit.
    Match,
    /// Trace fingerprints differ: a trace generator or the vendored
    /// `rand` no longer produces the streams the golden was blessed on.
    FingerprintMismatch {
        /// Fingerprint recorded in the committed file.
        committed: u64,
        /// Fingerprint of this environment's trace streams.
        fresh: u64,
    },
    /// Fingerprints match but lines differ: outputs are no longer
    /// bit-identical. Each entry describes one drifted line.
    Drift(Vec<String>),
    /// The committed golden file is absent or unreadable.
    Missing(String),
}

/// Compares `rendered` against the committed golden `file`, returning
/// the structured [`GoldenOutcome`]. Comment lines (`#`) are ignored;
/// everything else — fingerprint line included — must match exactly.
pub fn diff_against_committed(file: &str, rendered: &str) -> GoldenOutcome {
    let path = results_path(file);
    let committed = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => return GoldenOutcome::Missing(format!("{}: {e}", path.display())),
    };
    let fp = |text: &str| -> Option<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix("fingerprint "))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
    };
    let (Some(committed_fp), Some(fresh_fp)) = (fp(&committed), fp(rendered)) else {
        return GoldenOutcome::Missing(format!(
            "{}: no parseable fingerprint line",
            path.display()
        ));
    };
    if committed_fp != fresh_fp {
        return GoldenOutcome::FingerprintMismatch {
            committed: committed_fp,
            fresh: fresh_fp,
        };
    }
    fn significant(text: &str) -> Vec<&str> {
        text.lines().filter(|l| !l.starts_with('#')).collect()
    }
    let (want, got) = (significant(&committed), significant(rendered));
    let mut drifted = Vec::new();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i).copied(), got.get(i).copied());
        if w != g {
            drifted.push(format!(
                "row {}: committed {} vs fresh {}",
                i + 1,
                w.unwrap_or("<absent>"),
                g.unwrap_or("<absent>")
            ));
        }
    }
    if drifted.is_empty() {
        GoldenOutcome::Match
    } else {
        GoldenOutcome::Drift(drifted)
    }
}

/// Compares a freshly rendered golden against the committed file: the
/// fingerprint line and every row must match exactly. It never writes
/// the file; the driver's `--bless` flag does.
///
/// # Panics
///
/// Panics when the committed file is absent, the trace fingerprint
/// differs, or any line differs.
pub fn check_against_committed(file: &str, rendered: &str) {
    match diff_against_committed(file, rendered) {
        GoldenOutcome::Match => {}
        GoldenOutcome::FingerprintMismatch { committed, fresh } => panic!(
            "{file}: trace fingerprint mismatch ({committed:016x} committed vs \
             {fresh:016x} here): a trace generator or the vendored rand changed; if \
             the change is intentional, re-bless with the driver's --bless flag"
        ),
        GoldenOutcome::Drift(lines) => panic!(
            "{file} drifted (outputs are no longer bit-identical); if the change is \
             intentional, re-bless with the driver's --bless flag:\n{}",
            lines.join("\n")
        ),
        GoldenOutcome::Missing(why) => {
            panic!("missing golden file ({why}); regenerate it with the driver's --bless flag")
        }
    }
}

/// `--golden-check` driver mode: compares and reports on stderr,
/// returning whether the check passed. Only [`GoldenOutcome::Match`]
/// passes, exactly as in the test tier.
pub fn golden_check_cli(file: &str, rendered: &str) -> bool {
    match diff_against_committed(file, rendered) {
        GoldenOutcome::Match => {
            eprintln!("golden-check {file}: ok (bit-identical)");
            true
        }
        GoldenOutcome::FingerprintMismatch { committed, fresh } => {
            eprintln!(
                "golden-check {file}: FAILED — trace fingerprint {committed:016x} \
                 committed vs {fresh:016x} here"
            );
            false
        }
        GoldenOutcome::Drift(lines) => {
            eprintln!(
                "golden-check {file}: FAILED — {} drifted line(s):",
                lines.len()
            );
            for line in &lines {
                eprintln!("  {line}");
            }
            false
        }
        GoldenOutcome::Missing(why) => {
            eprintln!("golden-check {file}: FAILED — {why}");
            false
        }
    }
}

/// The shared golden driver modes of every golden-backed driver.
///
/// * `--bless` renders the reduced-scale golden and writes it to
///   `results/<file>`.
/// * `--golden-check` (the command-line form of the `golden` and
///   `golden_tables` tests' check) renders it,
///   diffs it against the committed `file`, reports on stderr, and —
///   with `--metrics` — records the outcome in the run manifest
///   (`golden.match` scalar, `golden_file` meta). The whole render is
///   timed as one `render` phase, so `simulate` counts only the mix
///   cells the render runs.
///
/// Returns the process exit code when either flag is set (success only
/// on a match; failure on drift, a fingerprint mismatch or a missing
/// golden), or `None` when neither is, so the driver runs its full
/// study.
pub fn golden_mode(
    args: &crate::Args,
    bin: &str,
    file: &str,
    seed: u64,
    render: impl FnOnce() -> String,
) -> Option<ExitCode> {
    if args.get_flag("bless", false) {
        let path = results_path(file);
        std::fs::write(&path, render()).expect("write golden");
        eprintln!("golden regenerated at {}", path.display());
        return Some(ExitCode::SUCCESS);
    }
    if !args.get_flag("golden-check", false) {
        return None;
    }
    let mut manifest = args.init_metrics(bin, seed);
    let render_phase = mrp_obs::phase("render");
    let rendered = render();
    drop(render_phase);
    let report_phase = mrp_obs::phase("report");
    let ok = golden_check_cli(file, &rendered);
    if let Some(m) = manifest.as_mut() {
        m.meta("mode", Json::Str("golden-check".into()));
        m.meta("golden_file", Json::Str(file.into()));
        m.scalar("golden.match", if ok { 1.0 } else { 0.0 });
    }
    drop(report_phase);
    crate::finish_manifest(manifest);
    Some(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_depends_on_seed() {
        assert_ne!(trace_fingerprint(1), trace_fingerprint(2));
        assert_eq!(trace_fingerprint(5), trace_fingerprint(5));
    }

    #[test]
    fn diff_reports_structured_outcomes() {
        // Exercise the line-diff logic against the committed fig10
        // golden, which a fresh render must match.
        let fresh = ablation_golden();
        assert_eq!(
            diff_against_committed("fig10_golden.txt", &fresh),
            GoldenOutcome::Match
        );
        // A doctored render with the right fingerprint but wrong rows
        // must report Drift.
        let committed = std::fs::read_to_string(results_path("fig10_golden.txt")).unwrap();
        let doctored: String = committed
            .lines()
            .map(|l| {
                if l.starts_with('#') || l.starts_with("fingerprint") {
                    format!("{l}\n")
                } else {
                    format!("{l}-doctored\n")
                }
            })
            .collect();
        match diff_against_committed("fig10_golden.txt", &doctored) {
            GoldenOutcome::Drift(lines) => assert!(!lines.is_empty()),
            other => panic!("doctored render must drift, got {other:?}"),
        }
        // Rows intact but another trace stream's fingerprint: a mismatch,
        // which fails the driver check.
        let render = refingerprinted_fig10();
        assert!(matches!(
            diff_against_committed("fig10_golden.txt", &render),
            GoldenOutcome::FingerprintMismatch { .. }
        ));
        assert!(!golden_check_cli("fig10_golden.txt", &render));
        assert!(matches!(
            diff_against_committed("no_such_golden.txt", &fresh),
            GoldenOutcome::Missing(_)
        ));
    }

    /// The committed fig10 golden with its fingerprint line replaced by
    /// one from another trace stream, rows untouched.
    fn refingerprinted_fig10() -> String {
        let committed = std::fs::read_to_string(results_path("fig10_golden.txt")).unwrap();
        committed
            .lines()
            .map(|l| match l.strip_prefix("fingerprint ") {
                Some(_) => format!(
                    "fingerprint {:016x}\n",
                    trace_fingerprint(ABLATION_SEED + 1)
                ),
                None => format!("{l}\n"),
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "trace fingerprint mismatch")]
    fn fingerprint_mismatch_fails_the_test_tier() {
        check_against_committed("fig10_golden.txt", &refingerprinted_fig10());
    }

    #[test]
    fn renderers_emit_fingerprint_and_rows() {
        let a = ablation_golden();
        assert!(a.contains("fingerprint "));
        assert!(a.contains("(original) "));
        let t = table3_golden();
        assert!(t.contains("fingerprint "));
        // 16 features => 16 data rows after the fingerprint line.
        let rows = t
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("fingerprint"))
            .count();
        assert_eq!(rows, 16);
    }
}
