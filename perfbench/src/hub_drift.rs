//! `hub-drift`: writes beside reads. One thread streams a telemetry
//! firehose into `hub.feed` (one batch per tenant per second, each a
//! replayed day, the 90-s retention window full), so drift → relearn →
//! recompile → re-recommend → publish recurs twice a second; the other
//! thread serves open-loop requests at a fixed rate. A closing saturation
//! phase measures capacity at the tenants' final epochs.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use atlas_core::{QualityModel, ServiceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{bounds_of, front_hv, serial_truth, verify_front};
use crate::fleet::{hub_fleet, Stream};
use crate::layers::{hub_layers, proc_mib, recommender_layers, traced_views};
use crate::report::Outcome;
use crate::serve::{closed_loop, open_loop, paced, Served};
use crate::setup::hub_cold_starts;
use crate::stats::{mean, median, p90};
use crate::trace::{overhead_pct, Tracer};
use crate::{probes, Run};

/// Open-loop arrival rate of the serving thread, requests per second,
/// evenly paced: about a third of what its one worker sustains, so even in
/// a slow spell of the machine a request is done before the next falls
/// due. Poisson bunching is `hub-steady`'s subject; here the tail is meant
/// to show the firehose's interference with reads, not a queue of the
/// reads' own.
const RATE: f64 = 8.0;
/// Drift window of every tenant's detectors (the service default).
const WINDOW: usize = 50;
/// Leading stream rounds discarded as warm-up.
const WARM_ROUNDS: u64 = 2;

/// One `hub.feed` call of the firehose.
struct Feed {
    tenant: usize,
    batch: u64,
    due_s: f64,
    start_s: f64,
    end_s: f64,
    traces: usize,
    evicted: usize,
    relearn_ms: Option<f64>,
    epoch: u64,
    ok: bool,
}

/// Run the workload.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(run.trace, run.origin);
    let seconds = run.seconds as f64;

    let generate = tracer.now();
    let apps = hub_fleet(run.seed, true);
    let streams: Vec<Stream> = apps
        .iter()
        .enumerate()
        .map(|(k, app)| Stream::new(app, WINDOW, k as u64))
        .collect();
    let generate_s = tracer.now() - generate;
    let cold = hub_cold_starts(&apps);
    let (hub, ids) = (&cold.hub, &cold.ids);
    out.attempted += cold.bootstraps;
    let bounds: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            hub.with_tenant(id, |s| {
                bounds_of(s.model().expect("bootstrapped"), i as u64)
            })
        })
        .collect();
    let mut models: HashMap<(usize, u64), Arc<QualityModel>> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            (
                (i, 1),
                hub.with_tenant(id, |s| s.shared_model().expect("bootstrapped")),
            )
        })
        .collect();

    let early_probes = run.trace.then(|| probes::run(&models[&(0, 1)], run.seed));
    let rounds = (0.85 * seconds).round().max(WARM_ROUNDS as f64 + 4.0) as u64;
    let mut rng = StdRng::seed_from_u64(run.seed);
    let arrivals = paced(&mut rng, RATE, rounds as f64, ids.len());
    let rss_before = proc_mib("VmRSS");
    let origin_s = tracer.now() + 0.05;
    let mut feeds: Vec<Feed> = Vec::new();
    let mut served: Vec<Served> = Vec::new();
    std::thread::scope(|scope| {
        let firehose = scope.spawn(|| {
            let mut feeds = Vec::new();
            let mut published = Vec::new();
            for b in 0..rounds {
                for (k, (&id, stream)) in ids.iter().zip(&streams).enumerate() {
                    let batch = stream.batch(b);
                    let traces = batch.len();
                    let due_s = origin_s + b as f64 + k as f64 / ids.len() as f64;
                    let now = tracer.now();
                    if now < due_s {
                        std::thread::sleep(Duration::from_secs_f64(due_s - now));
                    }
                    let start_s = tracer.now();
                    let events = catch_unwind(AssertUnwindSafe(|| hub.feed(id, batch)));
                    let end_s = tracer.now();
                    let mut feed = Feed {
                        tenant: k,
                        batch: b,
                        due_s,
                        start_s,
                        end_s,
                        traces,
                        evicted: 0,
                        relearn_ms: None,
                        epoch: hub.published_epoch(id).expect("bootstrapped"),
                        ok: events.is_ok(),
                    };
                    for event in events.unwrap_or_default() {
                        match event {
                            ServiceEvent::Ingested { evicted, .. } => feed.evicted += evicted,
                            ServiceEvent::Relearned { elapsed_ms, .. } => {
                                feed.relearn_ms = Some(elapsed_ms)
                            }
                            _ => {}
                        }
                    }
                    if feed.relearn_ms.is_some() {
                        let model =
                            hub.with_tenant(id, |s| s.shared_model().expect("bootstrapped"));
                        published.push(((k, feed.epoch), model));
                    }
                    feeds.push(feed);
                }
            }
            (feeds, published)
        });
        served = open_loop(hub, ids, &arrivals, origin_s, 1, 0, &tracer);
        let (f, published) = firehose.join().expect("firehose thread panicked");
        feeds = f;
        models.extend(published);
    });
    let rss_growth = proc_mib("VmRSS") - rss_before;
    // Capacity at the final epochs, after a short discarded warm-up: the
    // median rate of four windows.
    closed_loop(hub, ids, 0.03 * seconds, run.nproc, &tracer);
    let mut saturated = Vec::new();
    let mut rates = Vec::new();
    for _ in 0..4 {
        let (served, busy_s) = closed_loop(hub, ids, 0.03 * seconds, run.nproc, &tracer);
        rates.push(served.len() as f64 / busy_s);
        saturated.extend(served);
    }
    let capacity_rps = median(&rates);

    // Firehose checks: every flip batch reacted, no quiet batch did.
    let expected: usize = streams
        .iter()
        .map(|s| (0..rounds).filter(|&b| s.flips(b)).count())
        .sum();
    let reactions = feeds.iter().filter(|f| f.relearn_ms.is_some()).count();
    for f in &feeds {
        let flips = streams[f.tenant].flips(f.batch);
        if !f.ok {
            out.fail(format!(
                "feed of tenant {} batch {} panicked",
                f.tenant, f.batch
            ));
        } else if flips != f.relearn_ms.is_some() {
            out.fail(format!(
                "tenant {} batch {}: flip {flips}, relearned {}",
                f.tenant,
                f.batch,
                f.relearn_ms.is_some()
            ));
        }
    }
    out.attempted += feeds.len() as u64;
    out.notes.push(format!(
        "firehose: {rounds} rounds x {} tenants, {reactions} drift reactions (expected {expected}); switching APIs per tenant {:?}",
        ids.len(),
        streams.iter().map(|s| s.groups[0].len() + s.groups[1].len()).collect::<Vec<_>>()
    ));

    // Serving checks: each answer carries a published epoch, equals every
    // other answer at that (tenant, epoch), and re-scores exactly.
    let mut groups: BTreeMap<(usize, u64), Vec<&Served>> = BTreeMap::new();
    for s in served.iter().chain(&saturated) {
        out.attempted += 1;
        match &s.report {
            None => out.fail(format!("request to tenant {} panicked", s.tenant)),
            Some(r) => groups.entry((s.tenant, r.epoch)).or_default().push(s),
        }
    }
    for ((tenant, epoch), answers) in &groups {
        let Some(model) = models.get(&(*tenant, *epoch)) else {
            out.fail(format!(
                "tenant {tenant} answered at unpublished epoch {epoch}"
            ));
            continue;
        };
        let first = &answers[0]
            .report
            .as_ref()
            .expect("grouped answers exist")
            .report;
        if let Err(e) = verify_front(model, &first.plans) {
            out.fail(format!("tenant {tenant} epoch {epoch}: {e}"));
        }
        for a in &answers[1..] {
            if a.report
                .as_ref()
                .expect("grouped answers exist")
                .report
                .plans
                != first.plans
            {
                out.fail(format!("tenant {tenant} epoch {epoch}: answers differ"));
            }
        }
    }
    // Each tenant's final epoch reproduces a serial recommendation.
    let mut hv = Vec::new();
    for (k, &id) in ids.iter().enumerate() {
        let epoch = hub.published_epoch(id).expect("published");
        let model = hub.with_tenant(id, |s| s.shared_model().expect("bootstrapped"));
        let truth = serial_truth(&model);
        if hub.recommend(id, 1).report.plans != truth.plans {
            out.fail(format!(
                "tenant {k} final epoch {epoch} differs from the serial truth"
            ));
        }
        if let Some(answers) = groups.get(&(k, epoch)) {
            if answers[0].report.as_ref().expect("answered").report.plans != truth.plans {
                out.fail(format!(
                    "tenant {k} final-epoch answers differ from the serial truth"
                ));
            }
        }
        hv.push(front_hv(&bounds[k], &truth.plans));
    }

    let warm_s = origin_s + WARM_ROUNDS as f64;
    let measured: Vec<&Served> = served.iter().filter(|s| s.due_s >= warm_s).collect();
    let latency: Vec<f64> = measured.iter().map(|s| s.latency_ms()).collect();
    let steady: Vec<&Feed> = feeds.iter().filter(|f| f.batch >= WARM_ROUNDS).collect();
    let react: Vec<f64> = steady
        .iter()
        .filter(|f| f.relearn_ms.is_some())
        .map(|f| (f.end_s - f.due_s) * 1e3)
        .collect();
    let quiet: Vec<&&Feed> = steady.iter().filter(|f| f.relearn_ms.is_none()).collect();
    let ingest_traces_per_s = quiet.iter().map(|f| f.traces).sum::<usize>() as f64
        / quiet.iter().map(|f| f.end_s - f.start_s).sum::<f64>();
    out.notes.push(format!(
        "open loop: {} requests at {RATE} req/s after warm-up; p90 from {} samples; {} drift reactions timed",
        measured.len(),
        latency.len(),
        react.len()
    ));

    out.e2e("advise_p50_ms", "ms", median(&latency));
    out.e2e("advise_p90_ms", "ms", p90(&latency));
    out.e2e("capacity_rps", "1/s", capacity_rps);
    out.e2e(
        "ok_ratio",
        "ratio",
        1.0 - out.failed as f64 / out.attempted as f64,
    );
    out.e2e("front_hv", "hv", mean(&hv));
    out.e2e("drift_react_ms", "ms", median(&react));
    out.e2e("ingest_traces_per_s", "traces/s", ingest_traces_per_s);
    out.e2e("setup_s", "s", median(&cold.setup_s));
    out.e2e("rss_peak_mb", "MiB", proc_mib("VmHWM"));

    if run.trace {
        let traced: Vec<f64> = measured
            .iter()
            .filter(|s| s.traced)
            .map(|s| s.service_ms())
            .collect();
        let untraced: Vec<f64> = measured
            .iter()
            .filter(|s| !s.traced)
            .map(|s| s.service_ms())
            .collect();
        hub_layers(&mut out, &served, models.len() as f64, rss_growth);
        let views = traced_views(&tracer, &served);
        let probes =
            probes::run(&models[&(0, 1)], run.seed).mean(&early_probes.expect("traced run"));
        let compile = mean(
            &models
                .values()
                .map(|m| m.kernel_compile_ms())
                .collect::<Vec<_>>(),
        );
        recommender_layers(&mut out, &views, &probes, compile);
        let retained: usize = ids
            .iter()
            .map(|&id| hub.with_tenant(id, |s| s.store().trace_count()))
            .sum();
        let relearn: Vec<f64> = steady.iter().filter_map(|f| f.relearn_ms).collect();
        out.layer(
            "telemetry.ingest_us_per_trace",
            "us",
            1e6 / ingest_traces_per_s,
        );
        out.layer(
            "telemetry.evicted_per_batch",
            "traces",
            mean(&steady.iter().map(|f| f.evicted as f64).collect::<Vec<_>>()),
        );
        out.layer("telemetry.retained_traces", "traces", retained as f64);
        hub.with_tenant(ids[0], |s| {
            out.layer(
                "monitor.check_us_per_batch",
                "us",
                probes::monitor_check_us(s.store(), WINDOW),
            );
        });
        out.layer("service.drift_reactions", "count", reactions as f64);
        out.layer("profile.relearn_ms", "ms", median(&relearn));
        out.layer("setup.generate_s", "s", generate_s);
        out.layer("setup.bootstrap_s", "s", median(&cold.bootstrap_s));
        out.layer("trace.overhead_pct", "%", overhead_pct(&traced, &untraced));
    }
    out
}
