//! `advise-whatif`: one closed-loop owner re-asking with other
//! preferences. Every request carries a distinct seeded question (CPU
//! limit, pins, critical APIs), so every request compiles a kernel and
//! scores cold; nothing repeats.

use std::collections::HashMap;
use std::time::Instant;

use atlas_core::recommender::RecommendationReport;
use atlas_core::{Atlas, MigrationPreferences, Recommender};
use atlas_sim::ComponentId;
use atlas_sim::SiteId;
use atlas_telemetry::TelemetryStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{bounds_of, front_hv, verify_front};
use crate::fleet::{app_options, App};
use crate::layers::{proc_mib, recommender_layers, RequestView};
use crate::report::Outcome;
use crate::stats::{mean, median, p90, quantile};
use crate::trace::{overhead_pct, Tracer};
use crate::{probes, Run};

/// Components of the application.
const COMPONENTS: usize = 250;
/// Cold starts per run (`setup_s` is their median).
const COLD_STARTS: usize = 5;
/// Measured questions at least, whatever the run length: p90 needs ten
/// samples beyond it.
const MIN_QUESTIONS: usize = 110;
/// Questions whose fronts `front_hv` averages.
const HV_QUESTIONS: usize = 100;

/// The owner's seeded sequence of distinct questions.
struct Questions {
    rng: StdRng,
    apis: Vec<String>,
    components: usize,
    peak_cpu: f64,
}

impl Questions {
    fn next(&mut self) -> MigrationPreferences {
        let rng = &mut self.rng;
        let mut p = MigrationPreferences::with_cpu_limit(self.peak_cpu * rng.gen_range(0.45..0.75));
        for _ in 0..rng.gen_range(0..3usize) {
            p = p.critical(self.apis[rng.gen_range(0..self.apis.len())].clone());
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let site = if rng.gen_bool(0.5) {
                SiteId::ON_PREM
            } else {
                SiteId::CLOUD
            };
            p = p.pin(ComponentId(rng.gen_range(0..self.components)), site);
        }
        p
    }
}

/// One cold start of the what-if advisor.
struct Onboarded {
    atlas: Atlas,
    store: TelemetryStore,
    first: RecommendationReport,
    ingest_s: f64,
    learn_ms: f64,
    /// Milliseconds from the start of learning to the first answer.
    answer_ms: f64,
}

impl Onboarded {
    /// Count the episode as one operation and check its answer.
    fn verify(&self, app: &App, question: MigrationPreferences, out: &mut Outcome) {
        out.attempted += 1;
        let model = self.atlas.quality_model(app.current(), question);
        if let Err(e) = verify_front(&model, &self.first.plans) {
            out.fail(format!("onboarding answer: {e}"));
        }
    }
}

/// Ingest day 1 into a fresh store, learn, and answer one question.
fn onboard(
    app: &App,
    day1: Vec<atlas_telemetry::Trace>,
    question: MigrationPreferences,
) -> Onboarded {
    let store = TelemetryStore::new();
    app.context.replay_into(&store);
    let feed = Instant::now();
    store.ingest_batch(day1);
    let ingest_s = feed.elapsed().as_secs_f64();
    let learn = Instant::now();
    let mut atlas = Atlas::new(app.atlas_config());
    atlas.learn(&store);
    let learn_ms = learn.elapsed().as_secs_f64() * 1e3;
    let first = atlas.recommend(app.current(), question);
    Onboarded {
        answer_ms: learn.elapsed().as_secs_f64() * 1e3,
        atlas,
        store,
        first,
        ingest_s,
        learn_ms,
    }
}

/// One answered question.
struct Asked {
    /// Request id, shared with its spans.
    id: u64,
    preferences: MigrationPreferences,
    /// Milliseconds between the client starting to prepare the question
    /// and the advisor starting on it.
    gap_ms: f64,
    ms: f64,
    kernel_ms: f64,
    traced: bool,
    report: Option<RecommendationReport>,
}

/// Run the workload.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(run.trace, run.origin);
    let seconds = run.seconds as f64;

    let generate = tracer.now();
    // A fixed application; the seed drives its simulated telemetry and the
    // owner's questions.
    let app = App::generate(
        "owner".into(),
        app_options(COMPONENTS, 11),
        run.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        false,
    );
    let generate_s = tracer.now() - generate;

    let (mut atlas, mut store) = (None, None);
    let (mut setup_s, mut learn_ms) = (Vec::new(), Vec::new());
    for _ in 0..COLD_STARTS {
        let day1 = app.day1.clone();
        let start = Instant::now();
        let episode = onboard(&app, day1, app.preferences());
        setup_s.push(start.elapsed().as_secs_f64());
        learn_ms.push(episode.learn_ms);
        episode.verify(&app, app.preferences(), &mut out);
        atlas = Some(episode.atlas);
        store = Some(episode.store);
    }
    let (atlas, store) = (atlas.expect("cold started"), store.expect("cold started"));

    // Onboarding draws from a stream of its own, so question `i` of the
    // closed loop is the same whatever the machine's speed.
    let questions_from = |stream: u64| Questions {
        rng: StdRng::seed_from_u64(run.seed ^ stream),
        apis: store.apis(),
        components: COMPONENTS,
        peak_cpu: app.scenario.burst_cpu_limit(5.0, 1.0),
    };
    let (mut questions, mut onboarding_questions) =
        (questions_from(0x0A11), questions_from(0x0B0A));
    let recommender = atlas.config().recommender.clone();
    // `ready_s` is when the client started preparing the question. A
    // traced question makes `Atlas::recommend`'s two calls itself, with a
    // span around the model build (kernel compile included).
    let ask = |id: u64, traced: bool, ready_s: f64, preferences: MigrationPreferences| {
        let start = tracer.now();
        let gap_ms = (start - ready_s) * 1e3;
        let (report, kernel_ms) = if traced {
            let model = tracer.span("advisor.quality_model", id, || {
                atlas.quality_model(app.current(), preferences.clone())
            });
            let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Recommender::new(&model, recommender.clone()).recommend()
            }));
            (report.ok(), model.kernel_compile_ms())
        } else {
            let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                atlas.recommend(app.current(), preferences.clone())
            }));
            (report.ok(), 0.0)
        };
        Asked {
            id,
            ms: (tracer.now() - start) * 1e3,
            gap_ms,
            preferences,
            kernel_ms,
            traced,
            report,
        }
    };

    let base = atlas.quality_model(app.current(), app.preferences());
    let early_probes = run.trace.then(|| probes::run(&base, run.seed));

    // Warm-up, discarded: the first seconds of a process run slow.
    let mut asked = Vec::new();
    let warm_end = tracer.now() + 0.1 * seconds;
    while tracer.now() < warm_end {
        asked.push(ask(
            asked.len() as u64,
            false,
            tracer.now(),
            questions.next(),
        ));
    }
    let warm = asked.len();
    let rss_before = proc_mib("VmRSS");
    // Between every eighth question and the next, the application is
    // onboarded again. There is no drift here: onboarding times the same
    // learn → compile → recommend path cold, and the ingest before it;
    // spreading it over the run lets it sample the machine as the
    // questions do.
    let (mut traces, mut ingest_s, mut first_answer_ms) = (0usize, 0.0, Vec::new());
    let end = tracer.now() + 0.9 * seconds;
    while tracer.now() < end || asked.len() < warm + MIN_QUESTIONS {
        let i = asked.len();
        asked.push(ask(
            i as u64,
            run.trace && i % 2 == 0,
            tracer.now(),
            questions.next(),
        ));
        if i % 8 == 0 {
            let day1 = app.day1.clone();
            traces += day1.len();
            let question = onboarding_questions.next();
            let episode = onboard(&app, day1, question.clone());
            ingest_s += episode.ingest_s;
            first_answer_ms.push(episode.answer_ms);
            episode.verify(&app, question, &mut out);
        }
    }
    let rss_growth = proc_mib("VmRSS") - rss_before;
    let measured = &asked[warm..];

    // Every answer re-scores exactly under its own question's model.
    let mut hv = Vec::new();
    for (i, a) in asked.iter().enumerate() {
        let Some(report) = &a.report else {
            out.fail(format!("question {i} panicked"));
            continue;
        };
        let model = atlas.quality_model(app.current(), a.preferences.clone());
        if let Err(e) = verify_front(&model, &report.plans) {
            out.fail(format!("question {i}: {e}"));
        }
        // The first questions of the seeded sequence, however fast the
        // machine, so the figure is deterministic; each question's own
        // model sets its bounds (critical APIs reweight performance).
        if i < HV_QUESTIONS {
            hv.push(front_hv(&bounds_of(&model, 0), &report.plans));
        }
    }
    out.attempted += asked.len() as u64;

    let latency: Vec<f64> = measured.iter().map(|a| a.ms).collect();
    out.notes.push(format!(
        "closed loop, 1 client: {} questions measured after {warm} warm-up; p90 from {} samples",
        measured.len(),
        latency.len()
    ));
    out.e2e("advise_p50_ms", "ms", median(&latency));
    out.e2e("advise_p90_ms", "ms", p90(&latency));
    out.e2e(
        "capacity_rps",
        "1/s",
        1e3 * measured.len() as f64 / latency.iter().sum::<f64>(),
    );
    out.e2e(
        "ok_ratio",
        "ratio",
        1.0 - out.failed as f64 / out.attempted as f64,
    );
    out.e2e("front_hv", "hv", mean(&hv));
    out.e2e("drift_react_ms", "ms", median(&first_answer_ms));
    out.e2e("ingest_traces_per_s", "traces/s", traces as f64 / ingest_s);
    out.e2e("setup_s", "s", median(&setup_s));
    out.e2e("rss_peak_mb", "MiB", proc_mib("VmHWM"));

    if run.trace {
        let traced: Vec<&Asked> = measured.iter().filter(|a| a.traced).collect();
        let untraced: Vec<f64> = measured
            .iter()
            .filter(|a| !a.traced)
            .map(|a| a.ms)
            .collect();
        let traced_ms: Vec<f64> = traced.iter().map(|a| a.ms).collect();
        let model_ms: HashMap<u64, f64> = tracer
            .layer("advisor.quality_model")
            .iter()
            .map(|span| (span.request, span.ms()))
            .collect();
        let views: Vec<RequestView> = traced
            .iter()
            .filter_map(|a| {
                Some(RequestView {
                    report: a.report.as_ref()?,
                    request_ms: a.ms,
                    model_ms: *model_ms.get(&a.id)?,
                })
            })
            .collect();
        // No hub here: the closed-loop client's gap between an answer and
        // its next question stands in for queueing and lateness.
        let gaps: Vec<f64> = measured.iter().map(|a| a.gap_ms).collect();
        out.layer("hub.queue_wait_p50_ms", "ms", median(&gaps));
        out.layer("hub.service_p50_ms", "ms", median(&traced_ms));
        out.layer("hub.generator_late_p90_ms", "ms", quantile(&gaps, 0.9));
        out.layer("hub.repeat_share", "ratio", 0.0);
        out.layer("hub.epochs_published", "count", 0.0);
        out.layer("hub.rss_growth_mb", "MiB", rss_growth);
        let probes = probes::run(&base, run.seed).mean(&early_probes.expect("traced run"));
        let kernel = mean(&traced.iter().map(|a| a.kernel_ms).collect::<Vec<_>>());
        recommender_layers(&mut out, &views, &probes, kernel);
        out.layer(
            "telemetry.ingest_us_per_trace",
            "us",
            1e6 * ingest_s / traces as f64,
        );
        out.layer("telemetry.evicted_per_batch", "traces", 0.0);
        out.layer(
            "telemetry.retained_traces",
            "traces",
            store.trace_count() as f64,
        );
        out.layer(
            "monitor.check_us_per_batch",
            "us",
            probes::monitor_check_us(&store, 50),
        );
        out.layer("service.drift_reactions", "count", 0.0);
        out.layer("profile.relearn_ms", "ms", median(&learn_ms));
        out.layer("setup.generate_s", "s", generate_s);
        out.layer("setup.bootstrap_s", "s", median(&first_answer_ms) / 1e3);
        out.layer(
            "trace.overhead_pct",
            "%",
            overhead_pct(&traced_ms, &untraced),
        );
    }
    out
}
