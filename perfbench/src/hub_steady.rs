//! `hub-steady`: the warm serving path. Four tenants at fixed epochs. Six
//! rounds each run Poisson open-loop requests at a fixed rate (latency),
//! saturation (capacity) and tenant onboarding; a closing open-loop check
//! at 0.9× capacity tests the capacity figure.

use std::sync::Arc;

use atlas_core::recommender::RecommendationReport;
use atlas_core::QualityModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{bounds_of, front_hv, serial_truth, verify_front};
use crate::fleet::hub_fleet;
use crate::layers::{hub_layers, proc_mib, recommender_layers, traced_views};
use crate::report::Outcome;
use crate::serve::{closed_loop, open_loop, poisson, Served};
use crate::setup::{hub_cold_starts, ColdStarts, Onboarding};
use crate::stats::{mean, median, p90, quantile};
use crate::trace::{overhead_pct, Tracer};
use crate::{probes, Run};

/// Open-loop arrival rate, requests per second: about 0.4 of the hub's
/// capacity on a two-core machine (25–33 req/s as the machine's speed
/// drifts), low enough that a slow spell does not swamp the queue.
const RATE: f64 = 12.0;
/// Rounds of open-loop, saturation and onboarding phases.
const ROUNDS: usize = 6;
/// p90 latency limit of the 0.9×-capacity check, milliseconds.
const LIMIT_MS: f64 = 1000.0;

/// Run the workload.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(run.trace, run.origin);
    let workers = run.nproc;
    let seconds = run.seconds as f64;

    let generate = tracer.now();
    let apps = hub_fleet(run.seed, false);
    let generate_s = tracer.now() - generate;
    let cold = hub_cold_starts(&apps);
    let (hub, ids) = (&cold.hub, &cold.ids);
    out.attempted += cold.bootstraps;

    // Ground truth and normalisation bounds, per tenant, at its one epoch.
    let models: Vec<Arc<QualityModel>> = ids
        .iter()
        .map(|&id| hub.with_tenant(id, |s| s.shared_model().expect("bootstrapped")))
        .collect();
    let truths: Vec<RecommendationReport> = models.iter().map(|m| serial_truth(m)).collect();
    let mut hv = Vec::new();
    for (i, (model, truth)) in models.iter().zip(&truths).enumerate() {
        if let Err(e) = verify_front(model, &truth.plans) {
            out.fail(format!("tenant {i} serial front: {e}"));
        }
        hv.push(front_hv(&bounds_of(model, i as u64), &truth.plans));
    }

    let early_probes = run.trace.then(|| probes::run(&models[0], run.seed));
    let mut rng = StdRng::seed_from_u64(run.seed);
    let rss_before = proc_mib("VmRSS");
    // Warm-up, discarded: the first seconds of a process run slow.
    let (warm, _) = closed_loop(hub, ids, 0.1 * seconds, workers, &tracer);
    // The machine's speed drifts over seconds, so the open-loop,
    // saturation and onboarding phases alternate in rounds: each samples
    // the whole run, and capacity is the median of the rounds' rates.
    // There is no drift here: onboarding times the same learn → compile →
    // recommend → publish path cold, and the ingest before it.
    let (mut open, mut saturated, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut onboarding = Onboarding::default();
    let slice = seconds / ROUNDS as f64;
    for round in 0..ROUNDS {
        let arrivals = poisson(&mut rng, RATE, 0.55 * slice, ids.len());
        let first_id = (round as u64) << 24;
        open.extend(open_loop(
            hub,
            ids,
            &arrivals,
            tracer.now(),
            workers,
            first_id,
            &tracer,
        ));
        let (served, busy_s) = closed_loop(hub, ids, 0.2 * slice, workers, &tracer);
        rates.push(served.len() as f64 / busy_s);
        saturated.extend(served);
        onboarding.run(&apps, 0.1 * slice);
    }
    let capacity_rps = median(&rates);
    let check_arrivals = poisson(&mut rng, 0.9 * capacity_rps, 0.1 * seconds, ids.len());
    let check = open_loop(
        hub,
        ids,
        &check_arrivals,
        tracer.now(),
        workers,
        1 << 40,
        &tracer,
    );
    let rss_growth = proc_mib("VmRSS") - rss_before;

    // Every answer must be the serial truth of its tenant at epoch 1.
    let mut requests = 0usize;
    for s in warm.iter().chain(&saturated).chain(&open).chain(&check) {
        requests += 1;
        match &s.report {
            None => out.fail(format!("request to tenant {} panicked", s.tenant)),
            Some(r) if r.epoch != 1 => {
                out.fail(format!("tenant {} served at epoch {}", s.tenant, r.epoch))
            }
            Some(r) if r.report.plans != truths[s.tenant].plans => out.fail(format!(
                "tenant {} answer differs from the serial truth",
                s.tenant
            )),
            Some(_) => {}
        }
    }
    out.attempted += requests as u64;

    let latency: Vec<f64> = open.iter().map(Served::latency_ms).collect();
    let check_latency: Vec<f64> = check.iter().map(Served::latency_ms).collect();
    let third = check.len() / 3;
    let backlog_growth_ms = mean(
        &check[2 * third..]
            .iter()
            .map(Served::wait_ms)
            .collect::<Vec<_>>(),
    ) - mean(
        &check[..third]
            .iter()
            .map(Served::wait_ms)
            .collect::<Vec<_>>(),
    );
    let check_p90 = quantile(&check_latency, 0.9);
    let check_passed = check_p90 <= LIMIT_MS && backlog_growth_ms <= LIMIT_MS;
    out.notes.push(format!(
        "open loop: {} requests at {RATE} req/s; p90 from {} samples",
        open.len(),
        latency.len()
    ));
    out.notes.push(format!(
        "0.9x capacity check: {} requests at {:.1} req/s, p90 {:.1} ms (limit {LIMIT_MS} ms), backlog growth {:.1} ms: {}",
        check.len(),
        0.9 * capacity_rps,
        check_p90,
        backlog_growth_ms,
        if check_passed { "met" } else { "NOT met" }
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
    out.e2e("drift_react_ms", "ms", median(&onboarding.publish_ms));
    out.e2e(
        "ingest_traces_per_s",
        "traces/s",
        onboarding.ingest_traces_per_s(),
    );
    out.e2e("setup_s", "s", median(&cold.setup_s));
    out.e2e("rss_peak_mb", "MiB", proc_mib("VmHWM"));

    if run.trace {
        let traced: Vec<f64> = open
            .iter()
            .filter(|s| s.traced)
            .map(Served::service_ms)
            .collect();
        let untraced: Vec<f64> = open
            .iter()
            .filter(|s| !s.traced)
            .map(Served::service_ms)
            .collect();
        hub_layers(&mut out, &open, ids.len() as f64, rss_growth);
        let views = traced_views(&tracer, &open);
        let probes = probes::run(&models[0], run.seed).mean(&early_probes.expect("traced run"));
        let compile = mean(
            &models
                .iter()
                .map(|m| m.kernel_compile_ms())
                .collect::<Vec<_>>(),
        );
        recommender_layers(&mut out, &views, &probes, compile);
        common_layers(
            &mut out,
            &cold,
            onboarding.ingest_traces_per_s(),
            generate_s,
        );
        out.layer("trace.overhead_pct", "%", overhead_pct(&traced, &untraced));
        hub.with_tenant(ids[0], |s| {
            out.layer(
                "monitor.check_us_per_batch",
                "us",
                probes::monitor_check_us(s.store(), 50),
            );
        });
    }
    out
}

/// Telemetry, profile and set-up figures of a hub workload measured at set-up.
fn common_layers(out: &mut Outcome, cold: &ColdStarts, ingest_traces_per_s: f64, generate_s: f64) {
    let retained: usize = cold
        .ids
        .iter()
        .map(|&id| cold.hub.with_tenant(id, |s| s.store().trace_count()))
        .sum();
    out.layer(
        "telemetry.ingest_us_per_trace",
        "us",
        1e6 / ingest_traces_per_s,
    );
    out.layer("telemetry.evicted_per_batch", "traces", 0.0);
    out.layer("telemetry.retained_traces", "traces", retained as f64);
    out.layer("service.drift_reactions", "count", 0.0);
    out.layer("profile.relearn_ms", "ms", median(&cold.relearn_ms));
    out.layer("setup.generate_s", "s", generate_s);
    out.layer("setup.bootstrap_s", "s", median(&cold.bootstrap_s));
}
