//! The serving fleet's schema-versioned telemetry manifest.
//!
//! `mrp-serve` periodically snapshots its shard fleet into one JSON
//! document (schema [`FLEET_SCHEMA`]) — the machine-readable face of the
//! serving telemetry plane, next to the live registry counters. The
//! `status` subcommand and `manifest_check --fleet` both consume it
//! through [`validate`], so the schema is checked at the same layer as
//! the run-manifest schema.
//!
//! One document per write (atomic rename by the caller), not JSONL: a
//! fleet snapshot supersedes the previous one, unlike the append-only
//! run manifests.

use crate::json::Json;

/// Schema tag stamped into (and required of) every fleet manifest.
pub const FLEET_SCHEMA: &str = "mrp-fleet-manifest-v1";

/// Telemetry for one shard at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTelemetry {
    /// Shard index.
    pub shard: u64,
    /// Tenants routed to this shard.
    pub tenants: u64,
    /// Accesses processed since the fleet started.
    pub processed: u64,
    /// LLC hits among them.
    pub hits: u64,
    /// LLC misses that filled.
    pub misses: u64,
    /// Misses the policy bypassed.
    pub bypassed: u64,
    /// Largest ingest-queue depth any round left on this shard.
    pub queue_depth_peak: u64,
    /// Shard drain throughput: accesses per second of serving busy time
    /// (time inside the engine drain, excluding simulated-client
    /// traffic generation).
    pub accesses_per_sec: f64,
    /// Aggregated per-decision confidence histogram (fixed bins,
    /// strongly-reuse to strongly-bypass); empty when the fleet runs
    /// with confidence tracking off.
    pub confidence: Vec<u64>,
}

impl ShardTelemetry {
    /// Demand hit rate in `[0, 1]` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.processed == 0 {
            0.0
        } else {
            self.hits as f64 / self.processed as f64
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("shard".into(), Json::U64(self.shard)),
            ("tenants".into(), Json::U64(self.tenants)),
            ("processed".into(), Json::U64(self.processed)),
            ("hits".into(), Json::U64(self.hits)),
            ("misses".into(), Json::U64(self.misses)),
            ("bypassed".into(), Json::U64(self.bypassed)),
            ("hit_rate".into(), Json::F64(self.hit_rate())),
            ("queue_depth_peak".into(), Json::U64(self.queue_depth_peak)),
            ("accesses_per_sec".into(), Json::F64(self.accesses_per_sec)),
            (
                "confidence".into(),
                Json::Arr(self.confidence.iter().map(|&c| Json::U64(c)).collect()),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<ShardTelemetry, String> {
        let field = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("shard entry missing integer field {key:?}"))
        };
        let confidence = match value.get("confidence") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|v| v.as_u64().ok_or("confidence bins must be integers"))
                .collect::<Result<Vec<u64>, _>>()?,
            _ => return Err("shard entry missing confidence array".into()),
        };
        let telemetry = ShardTelemetry {
            shard: field("shard")?,
            tenants: field("tenants")?,
            processed: field("processed")?,
            hits: field("hits")?,
            misses: field("misses")?,
            bypassed: field("bypassed")?,
            queue_depth_peak: field("queue_depth_peak")?,
            accesses_per_sec: value
                .get("accesses_per_sec")
                .and_then(Json::as_f64)
                .ok_or("shard entry missing accesses_per_sec")?,
            confidence,
        };
        if telemetry.hits + telemetry.misses + telemetry.bypassed != telemetry.processed {
            return Err(format!(
                "shard {}: hits+misses+bypassed != processed",
                telemetry.shard
            ));
        }
        Ok(telemetry)
    }
}

/// One point-in-time snapshot of the whole serving fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetManifest {
    /// Seed the traffic model runs on.
    pub seed: u64,
    /// Rounds completed when the snapshot was taken.
    pub rounds: u64,
    /// Total tenants across the fleet.
    pub tenants: u64,
    /// Policy name the engines run (display form).
    pub policy: String,
    /// Per-shard telemetry, shard-index order.
    pub shards: Vec<ShardTelemetry>,
}

impl FleetManifest {
    /// Total accesses processed across shards.
    pub fn processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Aggregate fleet drain throughput: total accesses over total shard
    /// busy time. On a single-worker host (shards timesharing one core)
    /// this is exactly the sustained service rate; a deployment running
    /// shards concurrently sustains up to the *sum* of the per-shard
    /// rates instead.
    pub fn accesses_per_sec(&self) -> f64 {
        let busy_secs: f64 = self
            .shards
            .iter()
            .filter(|s| s.accesses_per_sec > 0.0)
            .map(|s| s.processed as f64 / s.accesses_per_sec)
            .sum();
        if busy_secs == 0.0 {
            0.0
        } else {
            self.processed() as f64 / busy_secs
        }
    }

    /// Renders the schema-versioned document.
    pub fn render(&self) -> String {
        let mut out = Json::Obj(vec![
            ("schema".into(), Json::Str(FLEET_SCHEMA.into())),
            ("seed".into(), Json::U64(self.seed)),
            ("rounds".into(), Json::U64(self.rounds)),
            ("tenants".into(), Json::U64(self.tenants)),
            ("policy".into(), Json::Str(self.policy.clone())),
            ("processed".into(), Json::U64(self.processed())),
            (
                "accesses_per_sec".into(),
                Json::F64(self.accesses_per_sec()),
            ),
            (
                "shards".into(),
                Json::Arr(self.shards.iter().map(ShardTelemetry::to_json).collect()),
            ),
        ])
        .render();
        out.push('\n');
        out
    }
}

/// Parses and validates a fleet manifest document: schema tag, required
/// fields, per-shard outcome arithmetic, and cross-checks of the
/// redundant totals. Returns the decoded manifest.
pub fn validate(text: &str) -> Result<FleetManifest, String> {
    let doc = Json::parse(text).map_err(|e| format!("fleet manifest is not JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(FLEET_SCHEMA) => {}
        Some(other) => return Err(format!("unexpected schema {other:?}")),
        None => return Err("missing schema field".into()),
    }
    let int = |key: &str| -> Result<u64, String> {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing integer field {key:?}"))
    };
    let shards = match doc.get("shards") {
        Some(Json::Arr(items)) if !items.is_empty() => items
            .iter()
            .map(ShardTelemetry::from_json)
            .collect::<Result<Vec<_>, _>>()?,
        Some(Json::Arr(_)) => return Err("fleet has no shards".into()),
        _ => return Err("missing shards array".into()),
    };
    for (i, s) in shards.iter().enumerate() {
        if s.shard != i as u64 {
            return Err(format!("shard entries out of order at index {i}"));
        }
    }
    let manifest = FleetManifest {
        seed: int("seed")?,
        rounds: int("rounds")?,
        tenants: int("tenants")?,
        policy: doc
            .get("policy")
            .and_then(Json::as_str)
            .ok_or("missing policy field")?
            .to_string(),
        shards,
    };
    if manifest.tenants != manifest.shards.iter().map(|s| s.tenants).sum::<u64>() {
        return Err("tenant counts do not sum to the fleet total".into());
    }
    if int("processed")? != manifest.processed() {
        return Err("processed total does not match the shard sum".into());
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> FleetManifest {
        FleetManifest {
            seed: 42,
            rounds: 8,
            tenants: 3,
            policy: "MPPPB".into(),
            shards: vec![
                ShardTelemetry {
                    shard: 0,
                    tenants: 2,
                    processed: 100,
                    hits: 60,
                    misses: 30,
                    bypassed: 10,
                    queue_depth_peak: 7,
                    accesses_per_sec: 1.5e7,
                    confidence: vec![0; 16],
                },
                ShardTelemetry {
                    shard: 1,
                    tenants: 1,
                    processed: 50,
                    hits: 20,
                    misses: 30,
                    bypassed: 0,
                    queue_depth_peak: 3,
                    accesses_per_sec: 0.5e7,
                    confidence: vec![0; 16],
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_render_and_validate() {
        let m = manifest();
        let parsed = validate(&m.render()).expect("valid");
        assert_eq!(parsed, m);
        assert_eq!(parsed.processed(), 150);
        // Aggregate drain rate = total work over total busy time:
        // 150 / (100/1.5e7 + 50/0.5e7) = 9e6.
        assert!((parsed.accesses_per_sec() - 9.0e6).abs() < 1.0);
        assert!((parsed.shards[0].hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn every_truncation_is_an_error() {
        let mut m = manifest();
        m.policy = "MPPPB-ü".into();
        let text = m.render();
        let text = text.trim_end();
        for (cut, _) in text.char_indices() {
            assert!(validate(&text[..cut]).is_err(), "cut at byte {cut}");
        }
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{\"schema\":\"mrp-run-manifest-v1\"}").is_err());
        let mut wrong_sum = manifest();
        wrong_sum.shards[0].hits += 1;
        assert!(validate(&wrong_sum.render()).is_err());
        let mut no_shards = manifest();
        no_shards.shards.clear();
        assert!(validate(&no_shards.render()).is_err());
        let mut wrong_tenants = manifest();
        wrong_tenants.tenants = 9;
        assert!(validate(&wrong_tenants.render()).is_err());
    }
}
