//! Schema-versioned JSONL run manifests.
//!
//! One manifest per driver invocation, written to
//! `<dir>/<bin>-<timestamp>-<seed>.jsonl`. The format is line-oriented
//! so manifests stream into `jq`/`grep` and append-merge across runs;
//! every line is one JSON object tagged with a `type`:
//!
//! | `type`    | payload |
//! |-----------|---------|
//! | `meta`    | schema version, binary, unix timestamp, seed, CLI args, `git describe`, thread count, replay flag |
//! | `cell`    | one experiment cell: `workload`, `policy`, and a `metrics` object (MPKI/IPC/cycles/…) |
//! | `scalar`  | one named summary value (geomean speedup, mean MPKI, …) |
//! | `phase`   | accumulated wall-clock of one named phase (`record`/`replay`/`simulate`/`report`) |
//! | `counter` | final value of one registry counter |
//! | `gauge`   | final value + peak of one registry gauge |
//!
//! The `meta` line is always first and carries
//! [`SCHEMA`] = `"mrp-run-manifest-v1"`; consumers must reject unknown
//! majors. [`validate`] enforces the shape (the `manifest_check` driver
//! and the round-trip tests are its callers).

use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::{phases_snapshot, registry_snapshot};

/// Current manifest schema identifier.
pub const SCHEMA: &str = "mrp-run-manifest-v1";

/// Builder/writer for one run's manifest.
#[derive(Debug)]
pub struct RunManifest {
    bin: String,
    seed: u64,
    dir: PathBuf,
    timestamp: u64,
    args: Vec<String>,
    git: String,
    meta_extra: Vec<(String, Json)>,
    cells: Vec<Json>,
    scalars: Vec<(String, f64)>,
}

impl RunManifest {
    /// Starts a manifest for driver `bin` at `seed`, writing into
    /// `dir` on [`finish`](Self::finish). Captures the process CLI
    /// args, `git describe --always --dirty` (best effort — `"unknown"`
    /// outside a git checkout), and the current unix timestamp.
    pub fn new(bin: &str, seed: u64, dir: impl Into<PathBuf>) -> Self {
        RunManifest {
            bin: bin.to_string(),
            seed,
            dir: dir.into(),
            timestamp: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            args: std::env::args().skip(1).collect(),
            git: git_describe(),
            meta_extra: Vec::new(),
            cells: Vec::new(),
            scalars: Vec::new(),
        }
    }

    /// Adds an extra field to the `meta` line (thread count, replay
    /// flag, driver-specific context).
    pub fn meta(&mut self, key: &str, value: Json) -> &mut Self {
        self.meta_extra.push((key.to_string(), value));
        self
    }

    /// Records one experiment cell: `workload` × `policy` with named
    /// numeric metrics (`ipc`, `mpki`, `cycles`, …).
    pub fn cell(&mut self, workload: &str, policy: &str, metrics: &[(&str, f64)]) -> &mut Self {
        self.cells.push(Json::Obj(vec![
            ("type".into(), Json::Str("cell".into())),
            ("workload".into(), Json::Str(workload.into())),
            ("policy".into(), Json::Str(policy.into())),
            (
                "metrics".into(),
                Json::Obj(
                    metrics
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::F64(*v)))
                        .collect(),
                ),
            ),
        ]));
        self
    }

    /// Records one named summary scalar (geomean speedup, mean MPKI…).
    pub fn scalar(&mut self, name: &str, value: f64) -> &mut Self {
        self.scalars.push((name.to_string(), value));
        self
    }

    /// Number of cells recorded so far.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The file name this manifest will be written under:
    /// `<bin>-<timestamp>-<seed>.jsonl`.
    pub fn file_name(&self) -> String {
        format!("{}-{}-{}.jsonl", self.bin, self.timestamp, self.seed)
    }

    /// Renders the full manifest (meta, cells, scalars, then a snapshot
    /// of all phases and registry metrics) as JSONL text.
    pub fn render(&self) -> String {
        let mut meta = vec![
            ("type".to_string(), Json::Str("meta".into())),
            ("schema".to_string(), Json::Str(SCHEMA.into())),
            ("bin".to_string(), Json::Str(self.bin.clone())),
            ("timestamp_unix_s".to_string(), Json::U64(self.timestamp)),
            ("seed".to_string(), Json::U64(self.seed)),
            (
                "args".to_string(),
                Json::Arr(self.args.iter().map(|a| Json::Str(a.clone())).collect()),
            ),
            ("git".to_string(), Json::Str(self.git.clone())),
        ];
        meta.extend(self.meta_extra.iter().cloned());

        let mut lines = vec![Json::Obj(meta).render()];
        lines.extend(self.cells.iter().map(Json::render));
        for (name, value) in &self.scalars {
            lines.push(
                Json::Obj(vec![
                    ("type".into(), Json::Str("scalar".into())),
                    ("name".into(), Json::Str(name.clone())),
                    ("value".into(), Json::F64(*value)),
                ])
                .render(),
            );
        }
        for (name, stat) in phases_snapshot() {
            lines.push(
                Json::Obj(vec![
                    ("type".into(), Json::Str("phase".into())),
                    ("name".into(), Json::Str(name)),
                    ("wall_s".into(), Json::F64(stat.total_ns as f64 / 1e9)),
                    ("count".into(), Json::U64(stat.count)),
                ])
                .render(),
            );
        }
        for (name, value, peak) in registry_snapshot() {
            let mut fields = vec![
                (
                    "type".to_string(),
                    Json::Str(if peak.is_some() { "gauge" } else { "counter" }.into()),
                ),
                ("name".to_string(), Json::Str(name)),
                ("value".to_string(), Json::I64(value)),
            ];
            if let Some(peak) = peak {
                fields.push(("peak".to_string(), Json::I64(peak)));
            }
            lines.push(Json::Obj(fields).render());
        }
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    /// Writes the manifest, creating the directory if needed, and
    /// returns the written path.
    pub fn finish(&self) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(self.file_name());
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}

fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Shape summary of a validated manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestSummary {
    /// Schema identifier from the meta line.
    pub schema: String,
    /// Driver binary name from the meta line.
    pub bin: String,
    /// Number of `cell` lines.
    pub cells: usize,
    /// Number of `scalar` lines.
    pub scalars: usize,
    /// Number of `phase` lines.
    pub phases: usize,
    /// Number of `counter` + `gauge` lines.
    pub counters: usize,
}

/// Parses and schema-checks a manifest document.
///
/// Enforces: non-empty; first line is a `meta` object carrying the
/// known [`SCHEMA`]; every line is a JSON object with a known `type`;
/// cells carry `workload`, `policy`, and an object `metrics`; phases,
/// counters, gauges, and scalars carry `name` plus their value fields.
pub fn validate(text: &str) -> Result<ManifestSummary, String> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or("empty manifest")?;
    let meta = Json::parse(first).map_err(|e| format!("line 1: {e}"))?;
    if meta.get("type").and_then(Json::as_str) != Some("meta") {
        return Err("line 1 is not a meta record".into());
    }
    let schema = meta
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("meta line missing schema")?;
    if schema != SCHEMA {
        return Err(format!("unknown schema {schema:?} (expected {SCHEMA:?})"));
    }
    let bin = meta
        .get("bin")
        .and_then(Json::as_str)
        .ok_or("meta line missing bin")?;
    for key in ["timestamp_unix_s", "seed"] {
        if meta.get(key).and_then(Json::as_u64).is_none() {
            return Err(format!("meta line missing integer {key}"));
        }
    }

    let mut summary = ManifestSummary {
        schema: schema.to_string(),
        bin: bin.to_string(),
        cells: 0,
        scalars: 0,
        phases: 0,
        counters: 0,
    };
    for (i, line) in lines {
        let n = i + 1;
        let record = Json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let kind = record
            .get("type")
            .and_then(Json::as_str)
            .ok_or(format!("line {n}: missing type"))?;
        let require = |key: &str| -> Result<(), String> {
            record
                .get(key)
                .map(|_| ())
                .ok_or(format!("line {n}: {kind} record missing {key}"))
        };
        match kind {
            "cell" => {
                require("workload")?;
                require("policy")?;
                match record.get("metrics") {
                    Some(Json::Obj(_)) => {}
                    _ => return Err(format!("line {n}: cell metrics must be an object")),
                }
                summary.cells += 1;
            }
            "scalar" => {
                require("name")?;
                require("value")?;
                summary.scalars += 1;
            }
            "phase" => {
                require("name")?;
                require("wall_s")?;
                require("count")?;
                summary.phases += 1;
            }
            "counter" | "gauge" => {
                require("name")?;
                require("value")?;
                summary.counters += 1;
            }
            "meta" => return Err(format!("line {n}: duplicate meta record")),
            other => return Err(format!("line {n}: unknown record type {other:?}")),
        }
    }
    Ok(summary)
}

/// Validates every `*.jsonl` manifest under `dir`; returns
/// `(file name, summary)` pairs sorted by name.
pub fn validate_dir(dir: &Path) -> Result<Vec<(String, ManifestSummary)>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let summary = validate(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            out.push((entry.file_name().to_string_lossy().into_owned(), summary));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> RunManifest {
        let mut m = RunManifest::new("test_bin", 7, std::env::temp_dir());
        m.meta("threads", Json::U64(4));
        m.cell("zipf.hot", "lru", &[("ipc", 1.25), ("mpki", 3.5)]);
        m.cell("loop.edge", "mpppb", &[("ipc", 1.5), ("mpki", 2.0)]);
        m.scalar("geomean_speedup.mpppb", 1.09);
        m
    }

    #[test]
    fn render_validates_and_counts() {
        let text = minimal().render();
        let summary = validate(&text).expect("valid manifest");
        assert_eq!(summary.schema, SCHEMA);
        assert_eq!(summary.bin, "test_bin");
        assert_eq!(summary.cells, 2);
        assert_eq!(summary.scalars, 1);
    }

    #[test]
    fn cell_values_round_trip_exactly() {
        let text = minimal().render();
        let cell = text
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .find(|r| {
                r.get("type").and_then(Json::as_str) == Some("cell")
                    && r.get("workload").and_then(Json::as_str) == Some("zipf.hot")
            })
            .expect("cell line");
        let metrics = cell.get("metrics").expect("metrics");
        assert_eq!(metrics.get("ipc").and_then(Json::as_f64), Some(1.25));
        assert_eq!(metrics.get("mpki").and_then(Json::as_f64), Some(3.5));
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("").is_err());
        assert!(validate("{\"type\":\"cell\"}").is_err(), "no meta first");
        let mut text = minimal().render();
        text.push_str("{\"type\":\"martian\"}\n");
        assert!(validate(&text).is_err(), "unknown record type");
        let missing = minimal().render().replace("\"workload\"", "\"wrkld\"");
        assert!(validate(&missing).is_err(), "cell without workload");
    }

    #[test]
    fn every_truncation_is_handled_without_panic() {
        let mut m = minimal();
        m.cell("ünï.cödé", "lru", &[("ipc", 0.5)]);
        let text = m.render();
        let line = text.lines().last().expect("a line");
        for doc in [text.as_str(), line] {
            for (cut, _) in doc.char_indices() {
                let _ = validate(&doc[..cut]);
            }
        }
        // Any cut inside the meta line leaves it unparseable.
        let meta_len = text.find('\n').expect("meta line");
        for (cut, _) in text[..meta_len].char_indices() {
            assert!(validate(&text[..cut]).is_err(), "cut at byte {cut}");
        }
    }

    #[test]
    fn file_name_is_bin_timestamp_seed() {
        let m = minimal();
        let name = m.file_name();
        assert!(name.starts_with("test_bin-"));
        assert!(name.ends_with("-7.jsonl"));
    }

    #[test]
    fn finish_writes_a_parseable_file() {
        let dir = std::env::temp_dir().join(format!("mrp-obs-test-{}", std::process::id()));
        let mut m = RunManifest::new("finish_test", 3, &dir);
        m.cell("w", "p", &[("mpki", 1.0)]);
        let path = m.finish().expect("write manifest");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(validate(&text).expect("valid").cells, 1);
        let listed = validate_dir(&dir).expect("scan dir");
        assert!(listed.iter().any(|(f, _)| f == &m.file_name()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
