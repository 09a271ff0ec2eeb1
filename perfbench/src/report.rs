//! Metric assembly: summary statistics, the per-layer budget from the
//! traced spans, and the result line.

use mrp_cache::CacheStats;
use mrp_core::predictor::PredictorStats;

use crate::drive::{llc_ops, TracedWindow, THREADS};
use crate::spans::{ratio, totals, Layer, LayerTotal, Step};

/// Metrics in output order: (name, value, unit).
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Fan-out bookkeeping for `runtime.fanout_efficiency`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fanouts {
    pub wall_ns: u64,
    pub job_ns: u64,
}

impl Fanouts {
    pub fn add(&mut self, wall_ns: u64, steps: &[Step]) {
        self.wall_ns += wall_ns;
        self.job_ns += steps.iter().map(Step::wall_ns).sum::<u64>();
    }

    pub fn efficiency(&self) -> f64 {
        ratio(self.job_ns as f64, (THREADS as u64 * self.wall_ns) as f64)
    }
}

/// Program-exposed counters summed over the run's traced MPPPB full-sim
/// windows: `HierarchyStats` and the predictor's own `stats()`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    pub instructions: u64,
    pub accesses: u64,
    pub l1d: CacheStats,
    pub l2: CacheStats,
    pub llc: CacheStats,
    pub predictor: PredictorStats,
}

impl SimCounts {
    pub fn add(&mut self, w: &TracedWindow) {
        self.instructions += w.result.instructions;
        self.accesses += w.accesses;
        self.l1d.merge(&w.result.stats.l1d);
        self.l2.merge(&w.result.stats.l2);
        self.llc.merge(&w.result.stats.llc);
        let p = &mut self.predictor;
        p.predictions += w.predictor.predictions;
        p.sampler_accesses += w.predictor.sampler_accesses;
        p.sampler_hits += w.predictor.sampler_hits;
        p.weight_updates += w.predictor.weight_updates;
    }

    fn per_kinst(&self, n: u64) -> f64 {
        ratio(n as f64 * 1000.0, self.instructions as f64)
    }
}

fn hit_ratio(s: &CacheStats) -> f64 {
    ratio(s.demand_hits as f64, s.demand_accesses() as f64)
}

/// Nanoseconds of `replay_single` per LLC event over the replay steps of
/// `kind` (a workload replays under LRU and MPPPB on its own path or in
/// its checks, never both).
fn replay_ns_per_llc_event(steps: &[Step], kind: &str) -> f64 {
    let (mut ns, mut events) = (0u64, 0u64);
    for s in steps.iter().filter(|s| s.kind == kind) {
        ns += s.row(Layer::Replay).busy_ns;
        events += s.units;
    }
    ratio(ns as f64, events as f64)
}

/// What the traced run measured besides its spans.
pub struct TracedRun<'a> {
    pub steps: &'a [Step],
    /// Kinds of the workload's own measured steps, and of its set-up
    /// steps. A layer these steps call is measured from them alone; a
    /// layer off the workload's path, from the check steps.
    pub measured: &'a [&'static str],
    pub setup: &'a [&'static str],
    pub counts: SimCounts,
    pub skews: &'a [f64],
    pub fanouts: Fanouts,
    /// The workload's own rate (M/s) untraced and traced, measured in
    /// alternating rounds of the same run.
    pub untraced_mips: f64,
    pub traced_mips: f64,
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(run: &TracedRun<'_>) -> Metrics {
    let steps = run.steps;
    let own: Vec<&Step> = steps
        .iter()
        .filter(|s| run.measured.contains(&s.kind) || run.setup.contains(&s.kind))
        .collect();
    let layer = |l: Layer| -> LayerTotal {
        let t = totals(own.iter().copied(), l);
        if t.calls > 0 {
            t
        } else {
            totals(steps, l)
        }
    };
    let c = &run.counts;
    let mut m = Metrics::default();
    m.put(
        "trace.fill_ns_per_access",
        layer(Layer::TraceFill).busy_per_work(),
        "ns",
    );
    m.put("trace.accesses_per_kinst", c.per_kinst(c.accesses), "count");
    m.put(
        "cache.hierarchy_ns_per_access",
        layer(Layer::Hierarchy).self_per_work(),
        "ns",
    );
    m.put(
        "cache.llc_ops_per_kinst",
        c.per_kinst(llc_ops(&c.llc)),
        "count",
    );
    m.put("cache.l1_hit_ratio", hit_ratio(&c.l1d), "ratio");
    m.put("cache.l2_hit_ratio", hit_ratio(&c.l2), "ratio");
    m.put("cache.record_ms", layer(Layer::Record).ms_per_call(), "ms");
    m.put(
        "cache.policy_build_ms",
        layer(Layer::PolicyBuild).ms_per_call(),
        "ms",
    );
    let lru = replay_ns_per_llc_event(steps, "replay.lru");
    m.put("cache.replay_lru_ns_per_llc_event", lru, "ns");
    m.put(
        "core.window_ns_per_llc_op",
        layer(Layer::Window).busy_per_work(),
        "ns",
    );
    m.put(
        "core.mpppb_marginal_ns_per_llc_event",
        replay_ns_per_llc_event(steps, "replay.mpppb") - lru,
        "ns",
    );
    m.put(
        "core.predictions_per_kinst",
        c.per_kinst(c.predictor.predictions),
        "count",
    );
    m.put(
        "core.weight_updates_per_kinst",
        c.per_kinst(c.predictor.weight_updates),
        "count",
    );
    m.put(
        "core.sampler_hit_ratio",
        ratio(
            c.predictor.sampler_hits as f64,
            c.predictor.sampler_accesses as f64,
        ),
        "ratio",
    );
    m.put(
        "core.bypass_ratio",
        ratio(
            c.llc.bypasses as f64,
            (c.llc.demand_misses + c.llc.prefetch_fills) as f64,
        ),
        "ratio",
    );
    m.put(
        "cpu.retire_ns_per_access",
        layer(Layer::Retire).busy_per_work(),
        "ns",
    );
    m.put(
        "cpu.replay_ns_per_event",
        layer(Layer::Replay).self_per_work(),
        "ns",
    );
    m.put(
        "serve.fill_ns_per_access",
        layer(Layer::ServeFill).busy_per_work(),
        "ns",
    );
    m.put(
        "serve.submit_ns_per_access",
        layer(Layer::Submit).busy_per_work(),
        "ns",
    );
    let submit_steps: Vec<&Step> = if own.iter().any(|s| !s.submit_ns.is_empty()) {
        own.clone()
    } else {
        steps.iter().collect()
    };
    let submits: Vec<f64> = submit_steps
        .iter()
        .flat_map(|s| s.submit_ns.iter().map(|&ns| f64::from(ns) / 1000.0))
        .collect();
    m.put("serve.submit_us_p90", quantile(&submits, 0.9), "us");
    m.put("serve.shard_work_skew", mean(run.skews), "ratio");
    m.put(
        "runtime.fanout_efficiency",
        run.fanouts.efficiency(),
        "ratio",
    );
    m.put("bench.untraced_mips", run.untraced_mips, "M/s");
    m.put("bench.traced_mips", run.traced_mips, "M/s");
    m.put(
        "bench.tracing_slowdown",
        ratio(run.untraced_mips, run.traced_mips),
        "ratio",
    );
    let residuals: Vec<f64> = steps
        .iter()
        .filter(|s| run.measured.contains(&s.kind) && s.wall_ns() > 0)
        .map(|s| s.residual_ns() as f64 / s.wall_ns() as f64)
        .collect();
    m.put(
        "bench.step_residual_share",
        quantile(&residuals, 0.5),
        "ratio",
    );
    m
}

/// Renders the result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
