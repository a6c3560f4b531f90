//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Off in the measured (`--trace 0`) run; the traced run records
//! and summarises them.

use std::sync::Mutex;
use std::time::Instant;

use crate::stats::median;

/// One closed span: a layer's call on behalf of one request.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer the call went into, e.g. `hub.recommend`.
    pub layer: &'static str,
    /// Identifier shared by every span of one request.
    pub request: u64,
    /// Seconds since the run's clock origin.
    pub start_s: f64,
    /// Seconds since the run's clock origin.
    pub end_s: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1_000.0
    }
}

/// The span sink of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the run's clock origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f`, recording a span around it when tracing is on.
    pub fn span<R>(&self, layer: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_s = self.now();
        let result = f();
        let end_s = self.now();
        self.spans.lock().expect("span sink poisoned").push(Span {
            layer,
            request,
            start_s,
            end_s,
        });
        result
    }

    /// Every span of one layer, in recording order.
    pub fn layer(&self, layer: &str) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span sink poisoned")
            .iter()
            .filter(|s| s.layer == layer)
            .cloned()
            .collect()
    }
}

/// Tracing overhead: traced against untraced medians of the same phase's
/// service times.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    100.0 * (median(traced) - median(untraced)) / median(untraced)
}
