//! A forwarding `ReplacementPolicy` wrapper: the benchmark's only way into
//! the LLC policy's hooks from outside the library.
//!
//! Every hook and every `uses_*` capability is forwarded unchanged, so a
//! probed cache makes exactly the decisions the bare policy makes (the
//! bit-identity checks compare against unprobed runs). On top of that the
//! probe can
//!
//! * time the advisory-window hook (`on_upcoming_accesses`), which is
//!   where MPPPB runs its batched predict stage;
//! * publish the predictor's own activity counters when it holds a
//!   concrete [`Mpppb`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mrp_cache::{AccessInfo, ReplacementPolicy, UpcomingAccess};
use mrp_core::predictor::PredictorStats;
use mrp_core::Mpppb;
use mrp_trace::MemoryAccess;

/// The policy a [`Probe`] wraps.
pub enum Inner {
    /// Held concretely so the predictor's counters are readable.
    Mpppb(Box<Mpppb>),
    /// Any other policy, behind the usual trait object.
    Other(Box<dyn ReplacementPolicy + Send>),
}

impl Inner {
    fn policy(&self) -> &(dyn ReplacementPolicy + Send) {
        match self {
            Inner::Mpppb(p) => p.as_ref(),
            Inner::Other(p) => p.as_ref(),
        }
    }

    fn policy_mut(&mut self) -> &mut (dyn ReplacementPolicy + Send) {
        match self {
            Inner::Mpppb(p) => p.as_mut(),
            Inner::Other(p) => p.as_mut(),
        }
    }
}

/// What the probe measured, shared with the benchmark code that owns the
/// probe's cache. Counters are statistics only (`Relaxed`): each probed
/// cache is driven by one thread, and readers read after that thread's
/// call returns.
#[derive(Default)]
pub struct ProbeState {
    timed: bool,
    /// Nanoseconds spent inside `on_upcoming_accesses`.
    window_ns: AtomicU64,
    /// Latest `MultiperspectivePredictor::stats()`, as
    /// (predictions, sampler accesses, sampler hits, weight updates).
    predictor: [AtomicU64; 4],
}

impl ProbeState {
    /// A shared state; `timed` turns on the window-hook timer.
    pub fn new(timed: bool) -> Arc<Self> {
        Arc::new(ProbeState {
            timed,
            ..ProbeState::default()
        })
    }

    /// Window-hook time so far, in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns.load(Ordering::Relaxed)
    }

    /// The predictor counters as of the last completed hook.
    pub fn predictor(&self) -> PredictorStats {
        let [a, b, c, d] = &self.predictor;
        PredictorStats {
            predictions: a.load(Ordering::Relaxed),
            sampler_accesses: b.load(Ordering::Relaxed),
            sampler_hits: c.load(Ordering::Relaxed),
            weight_updates: d.load(Ordering::Relaxed),
        }
    }
}

/// The forwarding wrapper.
pub struct Probe {
    inner: Inner,
    state: Arc<ProbeState>,
}

impl Probe {
    /// Wraps `inner`, reporting into `state`.
    pub fn new(inner: Inner, state: Arc<ProbeState>) -> Self {
        Probe { inner, state }
    }

    fn publish(&self) {
        if let Inner::Mpppb(p) = &self.inner {
            let s = p.predictor().stats();
            let values = [
                s.predictions,
                s.sampler_accesses,
                s.sampler_hits,
                s.weight_updates,
            ];
            for (slot, v) in self.state.predictor.iter().zip(values) {
                slot.store(v, Ordering::Relaxed);
            }
        }
    }
}

impl ReplacementPolicy for Probe {
    fn name(&self) -> &str {
        self.inner.policy().name()
    }

    fn on_access(&mut self, info: &AccessInfo) {
        self.inner.policy_mut().on_access(info);
    }

    fn on_core_access(&mut self, access: &MemoryAccess) {
        self.inner.policy_mut().on_core_access(access);
    }

    fn uses_core_accesses(&self) -> bool {
        self.inner.policy().uses_core_accesses()
    }

    fn on_upcoming_accesses(&mut self, window: &[UpcomingAccess]) {
        if self.state.timed {
            let start = Instant::now();
            self.inner.policy_mut().on_upcoming_accesses(window);
            let ns = start.elapsed().as_nanos() as u64;
            self.state.window_ns.fetch_add(ns, Ordering::Relaxed);
        } else {
            self.inner.policy_mut().on_upcoming_accesses(window);
        }
        self.publish();
    }

    fn uses_upcoming_accesses(&self) -> bool {
        self.inner.policy().uses_upcoming_accesses()
    }

    fn set_confidence_tracking(&mut self, enabled: bool) {
        self.inner.policy_mut().set_confidence_tracking(enabled);
    }

    fn confidence_histogram(&self) -> Option<Vec<u64>> {
        self.inner.policy().confidence_histogram()
    }

    fn on_hit(&mut self, info: &AccessInfo, way: u32) {
        self.inner.policy_mut().on_hit(info, way);
        self.publish();
    }

    fn should_bypass(&mut self, info: &AccessInfo) -> bool {
        let bypass = self.inner.policy_mut().should_bypass(info);
        self.publish();
        bypass
    }

    fn choose_victim(&mut self, info: &AccessInfo, occupants: &[u64]) -> u32 {
        self.inner.policy_mut().choose_victim(info, occupants)
    }

    fn uses_victim_occupants(&self) -> bool {
        self.inner.policy().uses_victim_occupants()
    }

    fn on_evict(&mut self, set: u32, way: u32, block: u64) {
        self.inner.policy_mut().on_evict(set, way, block);
    }

    fn on_fill(&mut self, info: &AccessInfo, way: u32) {
        self.inner.policy_mut().on_fill(info, way);
        self.publish();
    }
}
