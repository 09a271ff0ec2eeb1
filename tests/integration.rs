//! Cross-crate integration tests: trace generators -> hierarchy -> CPU
//! model -> policies -> experiment metrics, exercised end to end at small
//! scale.

use mrp_cache::replay::LlcRecording;
use mrp_cache::{CacheConfig, HierarchyConfig, ReplacementPolicy};
use mrp_cpu::{SingleCoreResult, SingleCoreSim};
use mrp_experiments::runner::{record, run_mix_policy, run_mixes, run_single, run_single_min};
use mrp_experiments::{PolicyKind, RunScale};
use mrp_trace::{workloads, MixBuilder};

fn tiny() -> RunScale {
    RunScale::single_thread().warmup(100_000).measure(400_000)
}

/// Replays `rec` under `kind` on the single-thread LLC.
fn run_kind(rec: &LlcRecording, kind: PolicyKind) -> SingleCoreResult {
    run_single(rec, kind.build(&CacheConfig::llc_single()))
}

#[test]
fn mpppb_beats_lru_on_scan_hot_workload() {
    let suite = workloads::suite();
    let scanhot = suite
        .iter()
        .find(|w| w.name() == "scanhot.protect")
        .unwrap();
    let rec = record(scanhot, tiny());
    let lru = run_kind(&rec, PolicyKind::Lru);
    let mpppb = run_kind(&rec, PolicyKind::MpppbSingle);
    assert!(
        mpppb.mpki < lru.mpki * 0.9,
        "MPPPB mpki {} vs LRU {}",
        mpppb.mpki,
        lru.mpki
    );
    assert!(mpppb.ipc > lru.ipc);
}

#[test]
fn min_lower_bounds_every_realistic_policy() {
    let suite = workloads::suite();
    // loop.edge is LRU-pathological, so the gap is wide and stable.
    let w = suite.iter().find(|w| w.name() == "loop.edge").unwrap();
    let rec = record(w, tiny());
    let min = run_single_min(&rec);
    for kind in [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::MpppbSingle] {
        let r = run_kind(&rec, kind);
        assert!(
            min.mpki <= r.mpki + 0.3,
            "MIN ({:.2}) above {:?} ({:.2})",
            min.mpki,
            kind,
            r.mpki
        );
    }
}

#[test]
fn hawkeye_never_bypasses_but_mpppb_does() {
    let suite = workloads::suite();
    let stream = suite.iter().find(|w| w.name() == "stream.rw").unwrap();
    let rec = record(stream, tiny());
    let hawkeye = run_kind(&rec, PolicyKind::Hawkeye);
    assert_eq!(hawkeye.stats.llc.bypasses, 0);
    let mpppb = run_kind(&rec, PolicyKind::MpppbSingle);
    assert!(mpppb.stats.llc.bypasses > 0, "MPPPB should bypass a stream");
}

#[test]
fn single_thread_runs_are_reproducible_across_policies() {
    let suite = workloads::suite();
    let w = &suite[10];
    // Two independent recordings: recording and replay must both be
    // deterministic.
    let (rec_a, rec_b) = (record(w, tiny()), record(w, tiny()));
    for kind in [
        PolicyKind::Lru,
        PolicyKind::Perceptron,
        PolicyKind::MpppbSingle,
    ] {
        let a = run_kind(&rec_a, kind);
        let b = run_kind(&rec_b, kind);
        assert_eq!(a.cycles, b.cycles, "{kind:?} not deterministic");
        assert_eq!(a.stats, b.stats);
    }
}

#[test]
fn instruction_accounting_is_consistent_between_cache_and_cpu() {
    let suite = workloads::suite();
    let config = HierarchyConfig::single_thread();
    let policy = PolicyKind::Lru.build(&config.llc);
    let mut sim = SingleCoreSim::new(config, policy, suite[3].trace(1));
    let r = sim.run(50_000, 200_000);
    assert_eq!(r.instructions, r.stats.instructions);
    assert!(r.cycles > 0);
    assert!((r.ipc - r.instructions as f64 / r.cycles as f64).abs() < 1e-9);
}

#[test]
fn multicore_weighted_speedup_is_bounded_by_core_count() {
    let mix = MixBuilder::new(7).mix(3);
    let scale = RunScale::multi_core()
        .warmup(50_000)
        .measure(200_000)
        .seed(mix.seed());
    let llc = HierarchyConfig::multi_core().llc;
    let columns: [PolicyKind; 0] = [];
    let run = run_mixes(scale, std::slice::from_ref(&mix), &columns, |k| {
        k.build(&llc)
    });
    let base: Vec<f64> = mix.members().iter().map(|id| run.standalone[id]).collect();
    let result = run_mix_policy(&mix, PolicyKind::MpppbMulti.build(&llc), scale);
    let ws = result.weighted_ipc(&base);
    assert!(ws > 0.0 && ws <= 4.3, "weighted IPC out of range: {ws}");
}

#[test]
fn every_workload_runs_under_mpppb_without_panic() {
    let scale = RunScale::single_thread()
        .warmup(10_000)
        .measure(60_000)
        .seed(3);
    for w in workloads::suite() {
        let r = run_kind(&record(&w, scale), PolicyKind::MpppbSingle);
        assert!(r.ipc > 0.0, "{} produced zero IPC", w.name());
        assert!(r.mpki.is_finite());
    }
}

#[test]
fn adaptive_guard_tracks_raw_mpppb_on_friendly_workloads() {
    // On a workload where MPPPB clearly wins, the guard must not give the
    // win away entirely (leader overhead and convergence cost a margin).
    let suite = workloads::suite();
    let scanhot = suite
        .iter()
        .find(|w| w.name() == "scanhot.protect")
        .unwrap();
    let rec = record(scanhot, tiny());
    let raw = run_kind(&rec, PolicyKind::MpppbSingle);
    let guarded = run_kind(&rec, PolicyKind::MpppbAdaptive);
    let lru = run_kind(&rec, PolicyKind::Lru);
    assert!(raw.ipc > lru.ipc, "MPPPB should beat LRU here");
    assert!(
        guarded.ipc > lru.ipc * 0.98,
        "guard must not lose to LRU: {} vs {}",
        guarded.ipc,
        lru.ipc
    );
}

#[test]
fn cv_policy_uses_other_halfs_features() {
    use mrp_experiments::runner::mpppb_cv_policy;
    // Just exercises the CV construction for every workload: the policy
    // must build and run for members of both halves.
    let suite = workloads::suite();
    for w in suite.iter().take(6) {
        let policy = mpppb_cv_policy(w);
        assert_eq!(policy.name(), "mpppb-adaptive");
    }
}

#[test]
fn suite_profile_matches_workload_descriptions() {
    use mrp_trace::analysis::profile;
    let suite = workloads::suite();
    // stream.rw advertises 50% stores.
    let rw = suite.iter().find(|w| w.name() == "stream.rw").unwrap();
    let p = profile(rw.trace(1), 20_000);
    assert!((p.store_fraction - 0.5).abs() < 0.05);
    // chase workloads advertise dependence.
    let chase = suite.iter().find(|w| w.name() == "chase.16m").unwrap();
    let p = profile(chase.trace(1), 20_000);
    assert!(p.dependent_fraction > 0.9);
}

#[test]
fn parallel_single_thread_matrix_is_bit_identical_to_serial() {
    // The whole point of mrp-runtime: any --threads value must reproduce
    // the serial results exactly, bit for bit. Run the full single-thread
    // matrix (all policy columns incl. MIN) serially and on 4 workers and
    // compare every float through to_bits().
    let scale = RunScale::single_thread()
        .warmup(20_000)
        .measure(80_000)
        .seed(3);
    mrp_runtime::set_threads(1);
    let serial = mrp_experiments::single_thread::run(scale, 3, false);
    mrp_runtime::set_threads(4);
    let parallel = mrp_experiments::single_thread::run(scale, 3, false);
    mrp_runtime::set_threads(0);

    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (s, p) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(s.workload, p.workload);
        assert_eq!(
            s.lru_ipc.to_bits(),
            p.lru_ipc.to_bits(),
            "{}: LRU IPC diverged",
            s.workload
        );
        assert_eq!(s.lru_mpki.to_bits(), p.lru_mpki.to_bits());
        for ((sn, s_ipc, s_mpki), (pn, p_ipc, p_mpki)) in s.policies.iter().zip(&p.policies) {
            assert_eq!(sn, pn);
            assert_eq!(
                s_ipc.to_bits(),
                p_ipc.to_bits(),
                "{}: {} IPC diverged between 1 and 4 threads",
                s.workload,
                sn
            );
            assert_eq!(
                s_mpki.to_bits(),
                p_mpki.to_bits(),
                "{}: {} MPKI diverged between 1 and 4 threads",
                s.workload,
                sn
            );
        }
    }
}

#[test]
fn policy_trait_objects_are_send() {
    fn assert_send<T: Send>(_: &T) {}
    let llc = HierarchyConfig::single_thread().llc;
    for kind in PolicyKind::ALL {
        let p: Box<dyn ReplacementPolicy + Send> = kind.build(&llc);
        assert_send(&p);
    }
}
