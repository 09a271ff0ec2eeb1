//! Spans recorded from benchmark code around calls into each layer.
//!
//! A step (one member's measure window, one replay job, one shard's share
//! of a fleet round) is one root span. Calls into a layer inside a step
//! are timed individually but folded, per (step, layer), into one row
//! that keeps the first start, the last end, the call count and the busy
//! time: a sim step makes thousands of 64-access groups, and one row per
//! call would not fit in memory for a whole run. A layer's self time is
//! its busy time minus the busy time of its child layer (the policy's
//! window hook runs inside `access_batch`, `replay_single` and
//! `submit_batch`). A step's residual is its wall time minus the self
//! times of every layer in it.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer calls the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Trace::next`/`Trace::fill`: trace generation.
    TraceFill,
    /// `Hierarchy::access_batch`: L1/L2/prefetcher and the LLC.
    Hierarchy,
    /// `ReplacementPolicy::on_upcoming_accesses`, via the probe.
    Window,
    /// The `CoreModel::retire_access` loop.
    Retire,
    /// `LlcRecording::record`: private levels with no LLC.
    Record,
    /// Policy construction plus its `Cache`.
    PolicyBuild,
    /// `replay_single`: recorded stream through the LLC and core model.
    Replay,
    /// `TenantTraffic::fill`: a tenant's round of traffic.
    ServeFill,
    /// `PredictionEngine::submit_batch`.
    Submit,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::TraceFill,
        Layer::Hierarchy,
        Layer::Window,
        Layer::Retire,
        Layer::Record,
        Layer::PolicyBuild,
        Layer::Replay,
        Layer::ServeFill,
        Layer::Submit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::TraceFill => "trace.fill",
            Layer::Hierarchy => "cache.access_batch",
            Layer::Window => "core.window",
            Layer::Retire => "cpu.retire",
            Layer::Record => "cache.record",
            Layer::PolicyBuild => "cache.policy_build",
            Layer::Replay => "cpu.replay_single",
            Layer::ServeFill => "serve.fill",
            Layer::Submit => "serve.submit_batch",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One layer's folded calls within a step.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerRow {
    pub first_ns: u64,
    pub last_ns: u64,
    pub calls: u64,
    pub busy_ns: u64,
    /// Units of work the calls handled (accesses, events, LLC ops).
    pub work: u64,
    /// Busy time of the child layer (the window hook) inside these calls.
    pub child_ns: u64,
}

impl LayerRow {
    pub fn self_ns(&self) -> u64 {
        self.busy_ns.saturating_sub(self.child_ns)
    }
}

/// The run's clock: every span is stamped in nanoseconds since `epoch`.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
    /// Whether layer calls are timed at all (the traced mode).
    pub enabled: bool,
}

impl Clock {
    pub fn new(enabled: bool) -> Self {
        Clock {
            epoch: Instant::now(),
            enabled,
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a step span.
    pub fn step(&self, kind: &'static str, member: &str) -> Step {
        Step {
            clock: *self,
            kind,
            member: member.to_string(),
            start_ns: self.now(),
            end_ns: 0,
            rows: [LayerRow::default(); Layer::ALL.len()],
            submit_ns: Vec::new(),
            units: 0,
        }
    }
}

/// A step span and its folded layer rows.
#[derive(Debug, Clone)]
pub struct Step {
    clock: Clock,
    pub kind: &'static str,
    pub member: String,
    pub start_ns: u64,
    pub end_ns: u64,
    rows: [LayerRow; Layer::ALL.len()],
    /// Every `submit_batch` call's duration, for its percentiles.
    pub submit_ns: Vec<u32>,
    /// The step's own unit count where a layer row cannot hold it (the
    /// LLC events of a replay step).
    pub units: u64,
}

impl Step {
    /// Runs `f` as one call into `layer`, timed when tracing is on.
    #[inline]
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.clock.enabled {
            return f();
        }
        let start = self.clock.now();
        let out = f();
        let end = self.clock.now();
        self.add(layer, start, end);
        out
    }

    /// Folds one timed call into `layer`'s row.
    #[inline]
    fn add(&mut self, layer: Layer, start: u64, end: u64) {
        let row = &mut self.rows[layer.index()];
        if row.calls == 0 {
            row.first_ns = start;
        }
        row.last_ns = end;
        row.calls += 1;
        row.busy_ns += end - start;
        if layer == Layer::Submit {
            self.submit_ns
                .push((end - start).min(u64::from(u32::MAX)) as u32);
        }
    }

    /// Adds `n` units of work to `layer`'s row.
    #[inline]
    pub fn count(&mut self, layer: Layer, n: u64) {
        if self.clock.enabled {
            self.rows[layer.index()].work += n;
        }
    }

    pub fn clock_enabled(&self) -> bool {
        self.clock.enabled
    }

    /// Credits `ns` of window-hook time (measured by the probe) to the
    /// `parent` layer call that contained it.
    #[inline]
    pub fn add_window(&mut self, parent: Layer, ns: u64) {
        if ns == 0 || !self.clock.enabled {
            return;
        }
        self.rows[parent.index()].child_ns += ns;
        let (first, last) = {
            let p = &self.rows[parent.index()];
            (p.first_ns, p.last_ns)
        };
        let row = &mut self.rows[Layer::Window.index()];
        if row.calls == 0 {
            row.first_ns = first;
        }
        row.last_ns = last;
        row.calls += 1;
        row.busy_ns += ns;
    }

    /// Closes the step span.
    pub fn finish(mut self) -> Step {
        self.end_ns = self.clock.now();
        self
    }

    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn row(&self, layer: Layer) -> &LayerRow {
        &self.rows[layer.index()]
    }

    /// Wall time not covered by any layer's self time.
    pub fn residual_ns(&self) -> i64 {
        let covered: u64 = self.rows.iter().map(LayerRow::self_ns).sum();
        self.wall_ns() as i64 - covered as i64
    }
}

/// The parent of `layer` in the span tree, given the step's layers.
fn parent_of(step: &Step, layer: Layer) -> Option<Layer> {
    if layer != Layer::Window {
        return None;
    }
    [Layer::Hierarchy, Layer::Replay, Layer::Submit]
        .into_iter()
        .find(|&p| step.row(p).child_ns > 0)
}

/// Renders every step and its layer rows as tab-separated spans:
/// `id  parent  step  name  start_ns  end_ns  calls  busy_ns  self_ns`.
/// Step spans have parent `-`; a layer row's parent is its step span, or
/// the layer row whose calls contained it.
pub fn render(steps: &[Step]) -> String {
    let mut out =
        String::from("id\tparent\tstep\tname\tstart_ns\tend_ns\tcalls\tbusy_ns\tself_ns\n");
    let mut id = 0usize;
    for (step_id, step) in steps.iter().enumerate() {
        let root = id;
        id += 1;
        let wall = step.wall_ns();
        let _ = writeln!(
            out,
            "{root}\t-\t{step_id}\t{}:{}\t{}\t{}\t1\t{wall}\t{}",
            step.kind,
            step.member,
            step.start_ns,
            step.end_ns,
            step.residual_ns().max(0)
        );
        let mut ids = [usize::MAX; Layer::ALL.len()];
        for layer in Layer::ALL {
            if step.row(layer).calls > 0 && layer != Layer::Window {
                ids[layer.index()] = id;
                id += 1;
            }
        }
        if step.row(Layer::Window).calls > 0 {
            ids[Layer::Window.index()] = id;
            id += 1;
        }
        for layer in Layer::ALL {
            let row = step.row(layer);
            if row.calls == 0 {
                continue;
            }
            let parent = parent_of(step, layer).map_or(root, |p| ids[p.index()]);
            let _ = writeln!(
                out,
                "{}\t{parent}\t{step_id}\t{}\t{}\t{}\t{}\t{}\t{}",
                ids[layer.index()],
                layer.name(),
                row.first_ns,
                row.last_ns,
                row.calls,
                row.busy_ns,
                row.self_ns()
            );
        }
    }
    out
}

/// Sums of one layer's rows across steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    pub work: u64,
}

impl LayerTotal {
    /// Busy nanoseconds per unit of work (0 when the layer did none).
    pub fn busy_per_work(&self) -> f64 {
        ratio(self.busy_ns as f64, self.work as f64)
    }

    /// Self nanoseconds per unit of work.
    pub fn self_per_work(&self) -> f64 {
        ratio(self.self_ns as f64, self.work as f64)
    }

    /// Busy milliseconds per call.
    pub fn ms_per_call(&self) -> f64 {
        ratio(self.busy_ns as f64 / 1e6, self.calls as f64)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Totals per layer over `steps`.
pub fn totals<'a>(steps: impl IntoIterator<Item = &'a Step>, layer: Layer) -> LayerTotal {
    let mut t = LayerTotal::default();
    for s in steps {
        let row = s.row(layer);
        t.calls += row.calls;
        t.busy_ns += row.busy_ns;
        t.self_ns += row.self_ns();
        t.work += row.work;
    }
    t
}
