//! Request generators over the hub: an open loop that sends on a seeded
//! Poisson schedule regardless of progress, and a closed loop that keeps
//! every worker busy.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use atlas_core::{AdvisorHub, HubReport, TenantId};
use rand::rngs::StdRng;
use rand::Rng;

use crate::trace::Tracer;

/// One request and how it went.
pub struct Served {
    /// Request id, shared with its spans.
    pub id: u64,
    /// Index of the tenant asked.
    pub tenant: usize,
    /// When the request was due, seconds on the run clock.
    pub due_s: f64,
    /// When a worker started it.
    pub start_s: f64,
    /// When the answer came back.
    pub end_s: f64,
    /// Whether the worker sat idle waiting for the request to fall due
    /// (then `start - due` is the generator's lateness, not queueing).
    pub idle: bool,
    /// Whether spans were recorded for this request.
    pub traced: bool,
    /// The answer; `None` if the call panicked.
    pub report: Option<HubReport>,
}

impl Served {
    /// Latency from the moment the request was due.
    pub fn latency_ms(&self) -> f64 {
        (self.end_s - self.due_s) * 1_000.0
    }

    /// Time a worker spent on the request.
    pub fn service_ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1_000.0
    }

    /// Time between the request falling due and a worker starting it.
    pub fn wait_ms(&self) -> f64 {
        (self.start_s - self.due_s) * 1_000.0
    }
}

/// A seeded Poisson arrival schedule: `(due offset in seconds, tenant)`.
pub fn poisson(rng: &mut StdRng, rate: f64, seconds: f64, tenants: usize) -> Vec<(f64, usize)> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t, rng.gen_range(0..tenants)));
    }
}

/// A seeded, evenly paced arrival schedule: request `i` falls due at
/// `(i + u/4) / rate` with `u` uniform in `[0, 1)`, so consecutive
/// arrivals stay at least three quarters of the mean gap apart; tenants
/// are drawn uniformly.
pub fn paced(rng: &mut StdRng, rate: f64, seconds: f64, tenants: usize) -> Vec<(f64, usize)> {
    (0..(rate * seconds) as usize)
        .map(|i| {
            (
                (i as f64 + rng.gen::<f64>() / 4.0) / rate,
                rng.gen_range(0..tenants),
            )
        })
        .collect()
}

fn ask(
    hub: &AdvisorHub,
    tenant: TenantId,
    traced: bool,
    tracer: &Tracer,
    id: u64,
) -> Option<HubReport> {
    catch_unwind(AssertUnwindSafe(|| {
        if traced {
            tracer.span("hub.recommend", id, || hub.recommend(tenant, 1))
        } else {
            hub.recommend(tenant, 1)
        }
    }))
    .ok()
}

/// Serve `arrivals` (due offsets from `origin_s`) open-loop with `workers`
/// threads, one evaluator thread per request, FIFO; request ids start at
/// `first_id`. In a traced run every other request is traced, so traced
/// and untraced requests see the same machine and the tracing overhead can
/// be read off their medians.
pub fn open_loop(
    hub: &AdvisorHub,
    ids: &[TenantId],
    arrivals: &[(f64, usize)],
    origin_s: f64,
    workers: usize,
    first_id: u64,
    tracer: &Tracer,
) -> Vec<Served> {
    let next = AtomicUsize::new(0);
    let served = Mutex::new(Vec::with_capacity(arrivals.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(offset, tenant)) = arrivals.get(i) else {
                    break;
                };
                let due_s = origin_s + offset;
                let now = tracer.now();
                let idle = now < due_s;
                if idle {
                    std::thread::sleep(Duration::from_secs_f64(due_s - now));
                }
                let traced = tracer.enabled() && i.is_multiple_of(2);
                let start_s = tracer.now();
                let id = first_id + i as u64;
                let report = ask(hub, ids[tenant], traced, tracer, id);
                let end_s = tracer.now();
                served.lock().expect("result sink poisoned").push(Served {
                    id,
                    tenant,
                    due_s,
                    start_s,
                    end_s,
                    idle,
                    traced,
                    report,
                });
            });
        }
    });
    let mut served = served.into_inner().expect("result sink poisoned");
    served.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    served
}

/// Keep `workers` threads busy with back-to-back requests, tenants in
/// round-robin order, until `seconds` have passed. Returns the requests
/// and the phase's elapsed seconds (up to the last completion).
pub fn closed_loop(
    hub: &AdvisorHub,
    ids: &[TenantId],
    seconds: f64,
    workers: usize,
    tracer: &Tracer,
) -> (Vec<Served>, f64) {
    let next = AtomicUsize::new(0);
    let served = Mutex::new(Vec::new());
    let origin_s = tracer.now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start_s = tracer.now();
                if start_s >= origin_s + seconds {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let tenant = i % ids.len();
                let report = ask(hub, ids[tenant], false, tracer, i as u64);
                let end_s = tracer.now();
                served.lock().expect("result sink poisoned").push(Served {
                    id: i as u64,
                    tenant,
                    due_s: start_s,
                    start_s,
                    end_s,
                    idle: false,
                    traced: false,
                    report,
                });
            });
        }
    });
    let served = served.into_inner().expect("result sink poisoned");
    let last = served.iter().map(|s| s.end_s).fold(origin_s, f64::max);
    (served, last - origin_s)
}
