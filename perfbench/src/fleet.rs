//! Benchmark inputs: the tenant applications, their day-1 telemetry and
//! the drift-regime corpora, all generated from the run's seed.

use atlas_apps::{synthesize, synthesize_drift_phase, CallGraphShape, SynthOptions, SynthScenario};
use atlas_apps::{WorkloadGenerator, WorkloadShape};
use atlas_core::{AdvisorServiceConfig, AtlasConfig, MigrationPreferences, RecommenderConfig};
use atlas_sim::{ClusterSpec, OverloadModel, Placement, SimConfig, Simulator};
use atlas_telemetry::{Direction, MetricKind, TelemetryStore, Trace};

/// Tenants behind the hub.
const TENANTS: u64 = 4;
/// Components per tenant application.
const TENANT_COMPONENTS: usize = 100;

/// Compressed length of one simulated day, in seconds.
const DAY_S: u64 = 60;
/// Telemetry retention window of every resident tenant, in seconds.
const RETENTION_S: u64 = 90;
/// Representative traces kept per API by the learner.
const TRACES_PER_API: usize = 40;

/// The search settings every workload uses: population 16, budget 250,
/// the fast RL configuration (120 iterations, a [48, 48] actor).
pub fn recommender_config() -> RecommenderConfig {
    RecommenderConfig {
        population: 16,
        max_visited: 250,
        ..RecommenderConfig::fast()
    }
}

/// Options of one synthetic application: the repository's scale-sweep
/// shape at `components`, with its own seed.
pub fn app_options(components: usize, seed: u64) -> SynthOptions {
    SynthOptions {
        components,
        shape: CallGraphShape::Layered,
        stateful_fraction: 0.2,
        apis: (components / 8).clamp(3, 12),
        call_depth: 4,
        data_scale: 1.0,
        workload: WorkloadShape::Diurnal,
        volume_scale: 1.0,
        site_count: 2,
        seed,
    }
}

/// The tenant fleet of the hub workloads. The applications themselves are
/// fixed, so figures compare across seeds; the seed drives the simulated
/// telemetry each tenant's model is learned from, and (in the runners) the
/// request arrivals and tenant choices.
pub fn hub_fleet(seed: u64, with_drift: bool) -> Vec<App> {
    (0..TENANTS)
        .map(|t| {
            App::generate(
                format!("tenant-{t}"),
                app_options(TENANT_COMPONENTS, 11 + t),
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(t),
                with_drift,
            )
        })
        .collect()
}

/// Component metrics and pairwise traffic of a simulated day, kept as
/// plain samples so a cold start can replay them into a fresh store.
#[derive(Default)]
pub struct Context {
    metrics: Vec<(String, MetricKind, u64, f64)>,
    traffic: Vec<(String, String, Direction, u64, f64)>,
}

impl Context {
    fn of(store: &TelemetryStore) -> Self {
        let mut context = Context::default();
        for component in store.components() {
            if let Some(metrics) = store.component_metrics(&component) {
                for kind in MetricKind::ALL {
                    if let Some(series) = metrics.series(kind) {
                        for p in series.points() {
                            context
                                .metrics
                                .push((component.clone(), kind, p.timestamp_s, p.value));
                        }
                    }
                }
            }
        }
        let traffic = store.traffic();
        for edge in traffic.edges() {
            for direction in [Direction::Request, Direction::Response] {
                if let Some(samples) = traffic.samples(&edge, direction) {
                    for s in samples {
                        context.traffic.push((
                            edge.from.clone(),
                            edge.to.clone(),
                            direction,
                            s.timestamp_s,
                            s.bytes,
                        ));
                    }
                }
            }
        }
        context
    }

    /// Record every sample into `store`.
    pub fn replay_into(&self, store: &TelemetryStore) {
        for (component, kind, t, v) in &self.metrics {
            store.record_metric(component, *kind, *t, *v);
        }
        for (from, to, direction, t, bytes) in &self.traffic {
            store.record_traffic(from, to, *direction, *t, *bytes);
        }
    }
}

/// One tenant application with everything a cold start needs.
pub struct App {
    /// The tenant's name in the hub.
    pub name: String,
    /// The generated application.
    pub scenario: SynthScenario,
    /// Day-1 traces in root-start order.
    pub day1: Vec<Trace>,
    /// Day-1 metrics and traffic.
    pub context: Context,
    /// The second regime's day (the repository's drift phase: 2× data,
    /// 2× compute, 1.5× volume, rotated API mix), when asked for.
    pub drifted: Option<Vec<Trace>>,
}

impl App {
    /// Generate one application and simulate its day(s).
    pub fn generate(name: String, options: SynthOptions, sim_seed: u64, with_drift: bool) -> Self {
        let scenario = synthesize(options).expect("benchmark options are valid");
        let store = simulate_day(&scenario, sim_seed);
        let day1 = corpus_of(&store);
        let context = Context::of(&store);
        let drifted = with_drift.then(|| {
            let phase = synthesize_drift_phase(&options).expect("drift options are valid");
            corpus_of(&simulate_day(&phase, sim_seed ^ 0x5EED))
        });
        App {
            name,
            scenario,
            day1,
            context,
            drifted,
        }
    }

    /// The placement the application runs at today: everything on-prem.
    pub fn current(&self) -> Placement {
        Placement::all_onprem(self.scenario.topology.component_count())
    }

    /// The owner's default preferences: an on-prem CPU limit at 60 % of
    /// the 5× burst's peak demand, which forces offloading.
    pub fn preferences(&self) -> MigrationPreferences {
        MigrationPreferences::with_cpu_limit(self.scenario.burst_cpu_limit(5.0, 0.6))
    }

    /// The advisor configuration of this application.
    pub fn atlas_config(&self) -> AtlasConfig {
        let mut config = AtlasConfig::new(
            self.scenario.component_index(),
            self.scenario.stateful_names(),
        );
        config.sites = Some(self.scenario.catalog.clone());
        config.traces_per_api = TRACES_PER_API;
        config.horizon_steps = 8;
        config.recommender = recommender_config();
        config
    }

    /// The resident-service configuration: bounded retention, a drift
    /// detector armed from 60 samples, and one evaluator thread, so a
    /// tenant reacting to drift occupies one core and the hub's request
    /// workers the others.
    pub fn service_config(&self) -> AdvisorServiceConfig {
        let mut atlas = self.atlas_config();
        atlas.recommender.threads = 1;
        let mut config = AdvisorServiceConfig::new(atlas, self.preferences())
            .with_retention_window_s(RETENTION_S);
        config.min_detector_samples = 60;
        config
    }
}

/// Simulate one compressed day of a scenario's workload, all on-prem.
fn simulate_day(scenario: &SynthScenario, seed: u64) -> TelemetryStore {
    let mut workload = scenario.workload.clone();
    workload.profile.day_seconds = DAY_S;
    let store = TelemetryStore::new();
    let sim = Simulator::new(
        scenario.topology.clone(),
        Placement::all_onprem(scenario.topology.component_count()),
        SimConfig {
            cluster: ClusterSpec::default(),
            overload: OverloadModel::disabled(),
            metric_window_s: 5,
            seed,
        },
    );
    let schedule = WorkloadGenerator::new(workload)
        .generate(&scenario.topology)
        .expect("workload matches the topology");
    sim.run(&schedule, &store);
    store
}

/// All traces of a store in root-start order.
fn corpus_of(store: &TelemetryStore) -> Vec<Trace> {
    let mut traces: Vec<Trace> = store
        .apis()
        .into_iter()
        .flat_map(|api| store.traces_for_api(&api))
        .collect();
    traces.sort_by_key(|t| (t.root().start_us, t.trace_id));
    traces
}

/// The telemetry firehose of one drift tenant.
///
/// Every batch replays one simulated day, shifted to follow the previous
/// one. The tenant's *switching* APIs, split into two groups, alternate
/// between the base day and the drift day; every other API always replays
/// the base day. Group 0 flips when `(batch + offset) % 4 == 0`, group 1
/// when it is 2, so every second batch of a tenant confirms drift and the
/// ones between are quiet.
///
/// Why this keeps firing: the service re-arms every dirty API's detector
/// at each relearn, from the retained window. When a group flips, the
/// other group has replayed one regime for the whole 90-s window, so it is
/// re-armed on a pure distribution and its next flip is unmistakable
/// drift. Because each day is replayed verbatim, an API that did not flip
/// shows exactly the freshest window it was armed with, so a quiet batch
/// never fires. The number of reactions is therefore exactly the number
/// of flip batches fed.
pub struct Stream {
    /// Merged day corpora indexed by `[regime of group 0][regime of group 1]`.
    days: [[Vec<Trace>; 2]; 2],
    /// The switching APIs of each group.
    pub groups: [Vec<String>; 2],
    offset: u64,
}

impl Stream {
    /// The firehose of `app` (which must carry a drift day), for a service
    /// whose drift window is `window` samples. An API switches only if both
    /// days hold at least two windows of its samples, so one batch replaces
    /// its whole window.
    pub fn new(app: &App, window: usize, offset: u64) -> Self {
        let drifted = app
            .drifted
            .as_ref()
            .expect("drift tenants carry a drift day");
        let count = |corpus: &[Trace], api: &str| {
            corpus.iter().filter(|t| t.root().operation == api).count()
        };
        let mut apis: Vec<String> = app
            .day1
            .iter()
            .map(|t| t.root().operation.clone())
            .collect();
        apis.sort();
        apis.dedup();
        let switching: Vec<String> = apis
            .into_iter()
            .filter(|api| count(&app.day1, api).min(count(drifted, api)) >= 2 * window)
            .collect();
        assert!(
            switching.len() >= 2,
            "{}: only {} APIs carry two drift windows per day",
            app.name,
            switching.len()
        );
        let groups = [
            switching.iter().step_by(2).cloned().collect::<Vec<_>>(),
            switching
                .iter()
                .skip(1)
                .step_by(2)
                .cloned()
                .collect::<Vec<_>>(),
        ];
        let day = |r0: usize, r1: usize| {
            let source = |api: &str| {
                let regime = if groups[0].iter().any(|g| g == api) {
                    r0
                } else if groups[1].iter().any(|g| g == api) {
                    r1
                } else {
                    0
                };
                regime == 1
            };
            let mut traces: Vec<Trace> = app
                .day1
                .iter()
                .filter(|t| !source(&t.root().operation))
                .cloned()
                .chain(
                    drifted
                        .iter()
                        .filter(|t| source(&t.root().operation))
                        .cloned()
                        .map(|mut t| {
                            // Both days number their traces from the same
                            // origin; keep the ids apart.
                            t.trace_id.0 |= 1 << 39;
                            t
                        }),
                )
                .collect();
            traces.sort_by_key(|t| (t.root().start_us, t.trace_id));
            traces
        };
        Stream {
            days: [[day(0, 0), day(0, 1)], [day(1, 0), day(1, 1)]],
            groups,
            offset,
        }
    }

    /// Whether batch `b` flips one of the groups (and so must trigger a
    /// drift reaction).
    pub fn flips(&self, b: u64) -> bool {
        (b + self.offset).is_multiple_of(2)
    }

    /// Regime of group `g` in batch `b`: the parity of its flips so far.
    fn regime(&self, b: u64, g: u64) -> usize {
        let first = (2 * g + 4 - self.offset % 4) % 4;
        let flips = if first > b { 0 } else { (b - first) / 4 + 1 };
        (flips % 2) as usize
    }

    /// Batch `b`: one simulated day placed after day 1 and the `b` batches
    /// before it, with trace ids tagged by batch and regime.
    pub fn batch(&self, b: u64) -> Vec<Trace> {
        let (r0, r1) = (self.regime(b, 0), self.regime(b, 1));
        let shift_us = (b + 1) * DAY_S * 1_000_000;
        self.days[r0][r1]
            .iter()
            .cloned()
            .map(|mut trace| {
                trace.trace_id.0 |= (b + 1) << 40;
                for node in &mut trace.nodes {
                    node.span.trace_id = trace.trace_id;
                    node.span.start_us += shift_us;
                }
                trace
            })
            .collect()
    }
}
