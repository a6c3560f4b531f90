//! Advisor cold start: feed each tenant's day-1 telemetry, then bootstrap
//! every tenant until all are published. Repeated so `setup_s` is a median.

use std::time::Instant;

use atlas_core::{AdvisorHub, AdvisorService, ServiceEvent, TenantId};

use crate::fleet::App;

/// Cold starts per run of a hub workload (`setup_s` is their median).
const COLD_STARTS: usize = 7;

/// What the repeated cold starts measured, plus the last hub (kept for the
/// run).
pub struct ColdStarts {
    /// The hub of the last cold start, every tenant published.
    pub hub: AdvisorHub,
    /// Tenant ids in `apps` order.
    pub ids: Vec<TenantId>,
    /// Operations the cold starts performed (one bootstrap per tenant
    /// each).
    pub bootstraps: u64,
    /// Wall seconds of each cold start.
    pub setup_s: Vec<f64>,
    /// Seconds each cold start spent bootstrapping (all tenants).
    pub bootstrap_s: Vec<f64>,
    /// `Relearned.elapsed_ms` of every cold learn.
    pub relearn_ms: Vec<f64>,
}

/// Register a fresh resident service for `app`, its day-1 metrics and
/// traffic recorded, with `hub`.
fn register(hub: &mut AdvisorHub, app: &App) -> TenantId {
    let service = AdvisorService::new(app.service_config(), app.current());
    app.context.replay_into(service.store());
    hub.add_tenant(app.name.clone(), service)
}

/// Run the cold starts of a hub serving `apps`.
pub fn hub_cold_starts(apps: &[App]) -> ColdStarts {
    let mut out = ColdStarts {
        hub: AdvisorHub::new(),
        ids: Vec::new(),
        bootstraps: (COLD_STARTS * apps.len()) as u64,
        setup_s: Vec::new(),
        bootstrap_s: Vec::new(),
        relearn_ms: Vec::new(),
    };
    for _ in 0..COLD_STARTS {
        // Copying the inputs is input preparation, not set-up.
        let corpora: Vec<_> = apps.iter().map(|a| a.day1.clone()).collect();
        let start = Instant::now();
        let mut hub = AdvisorHub::new();
        let ids: Vec<TenantId> = apps.iter().map(|app| register(&mut hub, app)).collect();
        for (&id, corpus) in ids.iter().zip(corpora) {
            hub.feed(id, corpus);
        }
        let boot = Instant::now();
        for &id in &ids {
            for event in hub.bootstrap(id) {
                if let ServiceEvent::Relearned { elapsed_ms, .. } = event {
                    out.relearn_ms.push(elapsed_ms);
                }
            }
            assert_eq!(
                hub.published_epoch(id),
                Some(1),
                "bootstrap publishes epoch 1"
            );
        }
        out.bootstrap_s.push(boot.elapsed().as_secs_f64());
        out.setup_s.push(start.elapsed().as_secs_f64());
        out.hub = hub;
        out.ids = ids;
    }
    out
}

/// Tenant onboarding timed in a warm process: the cold learn → compile →
/// recommend → publish path, repeated.
#[derive(Default)]
pub struct Onboarding {
    traces: usize,
    feed_s: f64,
    /// Milliseconds from each bootstrap call to the published epoch.
    pub publish_ms: Vec<f64>,
}

impl Onboarding {
    /// Day-1 traces over the time spent in the feeds.
    pub fn ingest_traces_per_s(&self) -> f64 {
        self.traces as f64 / self.feed_s
    }

    /// Onboard the tenants of `apps` in turn, each into a fresh hub (feed
    /// day 1, bootstrap, publish), for `seconds` and at least once.
    pub fn run(&mut self, apps: &[App], seconds: f64) {
        let start = Instant::now();
        let mut first = true;
        while first || start.elapsed().as_secs_f64() < seconds {
            first = false;
            let app = &apps[self.publish_ms.len() % apps.len()];
            let corpus = app.day1.clone();
            self.traces += corpus.len();
            let mut hub = AdvisorHub::new();
            let id = register(&mut hub, app);
            let feed = Instant::now();
            hub.feed(id, corpus);
            self.feed_s += feed.elapsed().as_secs_f64();
            let boot = Instant::now();
            hub.bootstrap(id);
            assert_eq!(
                hub.published_epoch(id),
                Some(1),
                "bootstrap publishes epoch 1"
            );
            self.publish_ms.push(boot.elapsed().as_secs_f64() * 1_000.0);
        }
    }
}
