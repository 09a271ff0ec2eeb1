//! Job specifications for the experiment orchestrator.
//!
//! A [`JobSpec`] names one schedulable unit of experiment work: which
//! driver binary to spawn (or [`SELF_BIN`] for the orchestrator's
//! built-in single-cell worker) and its `--key value` arguments. Specs
//! are extracted here — next to the drivers they describe — so the
//! `mrp-orchestrate` control plane, the campaign journal, and the CI
//! entry point all agree on one definition.
//!
//! # The spec hash
//!
//! [`JobSpec::spec_hash`] is the **dedup key** of the whole
//! orchestration layer: an FNV-1a fold over the binary name and the
//! argument pairs *sorted by key*, so two specs that describe the same
//! computation hash identically regardless of argument order. The id
//! and stdout destination are deliberately excluded — they name *where
//! results go*, not *what is computed* — as are the spawn-time extras
//! the orchestrator appends (`--metrics`, `--manifest-dir`,
//! `--spec-hash`, `--threads`). A worker run manifest records the hash
//! in its `meta` line (via the shared `--spec-hash` flag), which is how
//! resume re-verifies journaled done-jobs and how pre-existing
//! manifests in `runs/` dedupe fresh enqueues.
//!
//! # Plans
//!
//! Three canned campaigns: [`ci_plan`] (the five golden-backed drivers in
//! `--golden-check` mode — CI's single entry point), [`full_plan`] (the
//! ten-driver suite `scripts/run_all_experiments.sh` runs), and
//! [`smoke_plan`] (tiny self-worker cells for the crash-injection
//! tests).

use crate::policies::PolicyKind;
use mrp_obs::Json;

/// Sentinel binary name: run the job in the orchestrator's own binary
/// (`orchestrate worker`) instead of spawning a driver.
pub const SELF_BIN: &str = "self";

/// Argument keys the orchestrator appends at spawn time; they are
/// excluded from the spec hash and rejected in plan-authored specs so a
/// spec cannot silently disagree with the runtime environment.
pub const RESERVED_ARG_KEYS: [&str; 4] = ["metrics", "manifest-dir", "spec-hash", "threads"];

/// One schedulable unit of experiment work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Campaign-unique job id (journal key, display name).
    pub id: String,
    /// Driver binary name (`fig6_st_speedup`, …) or [`SELF_BIN`].
    pub bin: String,
    /// `--key value` argument pairs, in authoring order.
    pub args: Vec<(String, String)>,
    /// Repo-relative file to write the worker's stdout into (report
    /// capture, like the script's `tee`); `None` logs under the
    /// campaign's `logs/` directory.
    pub stdout: Option<String>,
}

impl JobSpec {
    /// Starts a spec with no arguments.
    pub fn new(id: impl Into<String>, bin: impl Into<String>) -> JobSpec {
        JobSpec {
            id: id.into(),
            bin: bin.into(),
            args: Vec::new(),
            stdout: None,
        }
    }

    /// Appends one `--key value` argument (builder style).
    pub fn arg(mut self, key: impl Into<String>, value: impl ToString) -> JobSpec {
        self.args.push((key.into(), value.to_string()));
        self
    }

    /// Routes the worker's stdout into a repo-relative file.
    pub fn stdout_to(mut self, path: impl Into<String>) -> JobSpec {
        self.stdout = Some(path.into());
        self
    }

    /// Looks up an argument value by key.
    pub fn get_arg(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The dedup key: FNV-1a over the binary name and the argument
    /// pairs sorted by key. Invariant under argument reordering;
    /// excludes `id` and `stdout` (see module docs).
    pub fn spec_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let fold = |hash: u64, bytes: &[u8]| -> u64 {
            let mut h = hash;
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
            // Field separator so ("ab","c") and ("a","bc") differ.
            h ^= 0xff;
            h.wrapping_mul(PRIME)
        };
        let mut hash = fold(OFFSET, self.bin.as_bytes());
        let mut sorted: Vec<&(String, String)> = self.args.iter().collect();
        sorted.sort();
        for (key, value) in sorted {
            hash = fold(hash, key.as_bytes());
            hash = fold(hash, value.as_bytes());
        }
        hash
    }

    /// The spec hash as the 16-digit hex string used in journals,
    /// manifests, and `--spec-hash`.
    pub fn spec_hash_hex(&self) -> String {
        format!("{:016x}", self.spec_hash())
    }

    /// The argument pairs flattened to a command line (`--key value …`).
    pub fn cli_args(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.args.len() * 2);
        for (key, value) in &self.args {
            out.push(format!("--{key}"));
            out.push(value.clone());
        }
        out
    }

    /// Canonical JSON form (fixed field order, so journal round-trips
    /// are byte-identical).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("bin".to_string(), Json::Str(self.bin.clone())),
            (
                "args".to_string(),
                Json::Obj(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ];
        if let Some(stdout) = &self.stdout {
            fields.push(("stdout".to_string(), Json::Str(stdout.clone())));
        }
        Json::Obj(fields)
    }

    /// Parses the canonical JSON form.
    pub fn from_json(record: &Json) -> Result<JobSpec, String> {
        let text = |key: &str| -> Result<String, String> {
            record
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("job spec missing string {key}"))
        };
        let args = match record.get("args") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|v| (k.clone(), v.to_string()))
                        .ok_or_else(|| format!("job spec arg {k} is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("job spec missing args object".into()),
        };
        let stdout = match record.get("stdout") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .map(str::to_string)
                    .ok_or("job spec stdout is not a string")?,
            ),
        };
        Ok(JobSpec {
            id: text("id")?,
            bin: text("bin")?,
            args,
            stdout,
        })
    }

    /// Rejects specs that set a [`RESERVED_ARG_KEYS`] argument.
    pub fn check_reserved(&self) -> Result<(), String> {
        for key in RESERVED_ARG_KEYS {
            if self.get_arg(key).is_some() {
                return Err(format!(
                    "job {} sets reserved argument --{key} (the orchestrator owns it)",
                    self.id
                ));
            }
        }
        Ok(())
    }
}

/// The CI campaign: every golden-backed driver in `--golden-check`
/// mode. A worker exits nonzero on drift, which the orchestrator
/// propagates, giving `orchestrate ci` its one-command golden gate.
pub fn ci_plan() -> Vec<JobSpec> {
    vec![
        JobSpec::new("golden.fig6", "fig6_st_speedup").arg("golden-check", "1"),
        JobSpec::new("golden.fig_roc", "fig_roc").arg("golden-check", "1"),
        JobSpec::new("golden.fig4", "fig4_mp_speedup").arg("golden-check", "1"),
        JobSpec::new("golden.fig10", "fig10_ablation").arg("golden-check", "1"),
        JobSpec::new("golden.table3", "table3_contrib").arg("golden-check", "1"),
    ]
}

/// Scale knobs of the [`full_plan`] campaign; defaults mirror
/// `scripts/run_all_experiments.sh`.
#[derive(Debug, Clone)]
pub struct FullScale {
    /// Single-thread driver warmup instructions.
    pub st_warmup: u64,
    /// Single-thread driver measured instructions.
    pub st_measure: u64,
    /// Multicore driver warmup instructions.
    pub mp_warmup: u64,
    /// Multicore driver measured instructions.
    pub mp_measure: u64,
    /// Multiprogrammed mixes for fig4/fig5.
    pub mixes: usize,
    /// Mixes for the fig9/fig10 sweeps.
    pub sweep_mixes: usize,
    /// Measured instructions for the fig9/fig10 sweeps.
    pub sweep_measure: u64,
    /// Measured instructions for the ROC curves.
    pub roc_measure: u64,
    /// Feature-search candidates for fig3.
    pub candidates: usize,
}

impl Default for FullScale {
    fn default() -> Self {
        FullScale {
            st_warmup: 2_000_000,
            st_measure: 8_000_000,
            mp_warmup: 1_500_000,
            mp_measure: 5_000_000,
            mixes: 24,
            sweep_mixes: 8,
            sweep_measure: 3_000_000,
            roc_measure: 6_000_000,
            candidates: 60,
        }
    }
}

/// The full experiment suite that `scripts/run_all_experiments.sh`
/// runs: ten drivers, each capturing its report into
/// `results/<name>.txt`.
pub fn full_plan(scale: &FullScale) -> Vec<JobSpec> {
    let st = |spec: JobSpec| {
        spec.arg("warmup", scale.st_warmup)
            .arg("measure", scale.st_measure)
    };
    let mp = |spec: JobSpec| {
        spec.arg("warmup", scale.mp_warmup)
            .arg("measure", scale.mp_measure)
            .arg("mixes", scale.mixes)
    };
    vec![
        JobSpec::new("fig_roc", "fig_roc")
            .arg("warmup", 2_000_000)
            .arg("measure", scale.roc_measure)
            .arg("workloads", 33)
            .stdout_to("results/fig_roc.txt"),
        st(JobSpec::new("fig6", "fig6_st_speedup"))
            .arg("workloads", 33)
            .stdout_to("results/fig6.txt"),
        st(JobSpec::new("fig7", "fig7_st_mpki"))
            .arg("workloads", 33)
            .stdout_to("results/fig7.txt"),
        mp(JobSpec::new("fig4", "fig4_mp_speedup")).stdout_to("results/fig4.txt"),
        mp(JobSpec::new("fig5", "fig5_mp_mpki")).stdout_to("results/fig5.txt"),
        JobSpec::new("fig3_search", "fig3_search")
            .arg("candidates", scale.candidates)
            .arg("workloads", 10)
            .arg("instructions", 2_000_000)
            .stdout_to("results/fig3_search.txt"),
        JobSpec::new("fig9", "fig9_assoc")
            .arg("mixes", scale.sweep_mixes)
            .arg("warmup", 1_000_000)
            .arg("measure", scale.sweep_measure)
            .arg("step", 2)
            .stdout_to("results/fig9.txt"),
        JobSpec::new("fig10", "fig10_ablation")
            .arg("mixes", scale.sweep_mixes)
            .arg("warmup", 1_000_000)
            .arg("measure", scale.sweep_measure)
            .stdout_to("results/fig10.txt"),
        JobSpec::new("tables", "tables_features").stdout_to("results/tables.txt"),
        JobSpec::new("table3", "table3_contrib")
            .arg("workloads", 33)
            .arg("instructions", 2_000_000)
            .stdout_to("results/table3.txt"),
    ]
}

/// Workloads in the crash-test smoke campaign (a spread of access
/// patterns that stays cheap at tiny scale).
pub const SMOKE_WORKLOADS: [&str; 3] = ["zipf.hot", "loop.edge", "stream.rw"];

/// Policies in the crash-test smoke campaign.
pub const SMOKE_POLICIES: [&str; 2] = ["lru", "srrip"];

/// A tiny (workload × policy) grid of self-worker cells: the campaign
/// the crash-injection tests SIGKILL and resume. `spin_ms` pads each
/// worker's runtime (result-neutral) so a kill reliably lands
/// mid-flight even at debug-profile test scales.
pub fn smoke_plan(seed: u64, warmup: u64, measure: u64, spin_ms: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for workload in SMOKE_WORKLOADS {
        for policy in SMOKE_POLICIES {
            debug_assert!(PolicyKind::from_name(policy).is_some());
            let mut spec = JobSpec::new(format!("cell.{workload}.{policy}"), SELF_BIN)
                .arg("workload", workload)
                .arg("policy", policy)
                .arg("seed", seed)
                .arg("warmup", warmup)
                .arg("measure", measure);
            if spin_ms > 0 {
                spec = spec.arg("spin-ms", spin_ms);
            }
            jobs.push(spec);
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSpec {
        JobSpec::new("cell.zipf.hot.lru", SELF_BIN)
            .arg("workload", "zipf.hot")
            .arg("policy", "lru")
            .arg("seed", 7)
            .stdout_to("results/cell.txt")
    }

    #[test]
    fn spec_hash_is_invariant_under_arg_order() {
        let a = sample();
        let mut b = a.clone();
        b.args.reverse();
        assert_eq!(a.spec_hash(), b.spec_hash());
        assert_eq!(a.spec_hash_hex().len(), 16);
    }

    #[test]
    fn spec_hash_ignores_id_and_stdout_but_not_args() {
        let a = sample();
        let mut renamed = a.clone();
        renamed.id = "other-name".into();
        renamed.stdout = None;
        assert_eq!(a.spec_hash(), renamed.spec_hash());
        let changed = a.clone().arg("extra", 1);
        assert_ne!(a.spec_hash(), changed.spec_hash());
        let mut other_bin = a.clone();
        other_bin.bin = "fig6_st_speedup".into();
        assert_ne!(a.spec_hash(), other_bin.spec_hash());
    }

    #[test]
    fn field_separator_prevents_concatenation_collisions() {
        let a = JobSpec::new("x", "b").arg("ab", "c");
        let b = JobSpec::new("x", "b").arg("a", "bc");
        assert_ne!(a.spec_hash(), b.spec_hash());
    }

    #[test]
    fn json_round_trips_bit_equal() {
        for spec in [sample(), JobSpec::new("bare", "fig_roc")] {
            let rendered = spec.to_json().render();
            let parsed = JobSpec::from_json(&Json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(parsed, spec);
            assert_eq!(parsed.to_json().render(), rendered);
        }
    }

    #[test]
    fn reserved_keys_are_rejected() {
        assert!(sample().check_reserved().is_ok());
        let bad = sample().arg("manifest-dir", "elsewhere");
        assert!(bad.check_reserved().is_err());
    }

    #[test]
    fn cli_args_flatten_in_authoring_order() {
        let spec = JobSpec::new("x", "b").arg("seed", 7).arg("warmup", 100);
        assert_eq!(spec.cli_args(), vec!["--seed", "7", "--warmup", "100"]);
    }

    #[test]
    fn plans_have_unique_ids_and_clean_args() {
        let scale = FullScale::default();
        for plan in [ci_plan(), full_plan(&scale), smoke_plan(7, 2000, 8000, 50)] {
            let mut ids: Vec<&str> = plan.iter().map(|j| j.id.as_str()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), plan.len(), "duplicate job ids in plan");
            for job in &plan {
                job.check_reserved()
                    .expect("plan must not set reserved args");
            }
        }
        assert_eq!(smoke_plan(7, 2000, 8000, 0).len(), 6);
        assert_eq!(ci_plan().len(), 5);
        assert_eq!(full_plan(&scale).len(), 10);
    }

    #[test]
    fn smoke_plan_policies_resolve() {
        for job in smoke_plan(1, 10, 10, 0) {
            let policy = job.get_arg("policy").expect("policy arg");
            assert!(PolicyKind::from_name(policy).is_some(), "{policy}");
        }
    }
}
