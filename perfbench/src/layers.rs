//! Per-layer figures shared by every workload: the recommender's own
//! counters from each request's report, the layer probes, and the
//! attribution of a request's time to layers.

use std::collections::{HashMap, HashSet};

use atlas_core::recommender::RecommendationReport;

use crate::fleet::recommender_config;
use crate::probes::Probes;
use crate::report::Outcome;
use crate::serve::Served;
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;

/// One measured recommendation request.
pub struct RequestView<'a> {
    /// The request's report.
    pub report: &'a RecommendationReport,
    /// Wall milliseconds of the whole request.
    pub request_ms: f64,
    /// Milliseconds spent building the request's quality model (what-if
    /// requests compile a kernel; hub requests read a published one).
    pub model_ms: f64,
}

/// Record the `recommender`, `rl`, `eval`, `kernel` and `ga` figures and
/// the attribution of `recommender.request_ms`. The attributed layers and
/// `recommender.unattributed_ms` sum to `recommender.request_ms` by
/// construction; probe-based shares are per-call costs times the request's
/// own call counts.
pub fn recommender_layers(
    out: &mut Outcome,
    requests: &[RequestView],
    probes: &Probes,
    kernel_compile_ms: f64,
) {
    let population = recommender_config().population as f64;
    let of = |f: &dyn Fn(&RequestView) -> f64| mean(&requests.iter().map(f).collect::<Vec<_>>());
    let request_ms = of(&|r| r.request_ms);
    let model_ms = of(&|r| r.model_ms);
    let visited = of(&|r| r.report.visited as f64);
    let evaluations = of(&|r| r.report.eval.requests() as f64);
    let iterations = of(&|r| r.report.reward_progression.len() as f64);
    let unique = of(&|r| r.report.eval.unique_evaluations as f64);
    let hits = of(&|r| r.report.eval.cache_hits as f64);
    let score_ms = of(&|r| r.report.eval.wall_time_ms);
    // Every evaluation request is the initial population, an RL rollout or
    // a GA offspring.
    let offspring = (evaluations - population - iterations).max(0.0);
    let generations = (offspring / population).ceil();

    let rl_train_ms = iterations * probes.train_us_per_iter / 1e3;
    let crossover_ms = offspring * probes.crossover_us / 1e3;
    let survive_ms = generations * probes.survive_us / 1e3;
    let archive_ms = evaluations * probes.archive_insert_us / 1e3;
    let attributed = [
        ("rl.train (probe x iterations)", rl_train_ms),
        ("eval.score (report)", score_ms),
        ("kernel.model_build (span)", model_ms),
        ("rl.crossover (probe x offspring)", crossover_ms),
        ("ga.survive (probe x generations)", survive_ms),
        ("ga.archive (probe x evaluations)", archive_ms),
    ];
    let unattributed = request_ms - attributed.iter().map(|(_, ms)| ms).sum::<f64>();
    out.attribution = attributed.to_vec();
    out.attribution
        .push(("recommender.unattributed", unattributed));

    out.layer("recommender.request_ms", "ms", request_ms);
    out.layer("recommender.visited", "plans", visited);
    out.layer(
        "recommender.distinct_ratio",
        "ratio",
        visited / evaluations.max(1.0),
    );
    out.layer("recommender.unattributed_ms", "ms", unattributed);
    out.layer("rl.iterations", "count", iterations);
    out.layer("rl.train_us_per_iter", "us", probes.train_us_per_iter);
    out.layer("rl.crossover_us", "us", probes.crossover_us);
    out.layer("eval.unique_per_request", "plans", unique);
    out.layer("eval.hit_ratio", "ratio", hits / (unique + hits).max(1.0));
    out.layer("eval.score_ms", "ms", score_ms);
    out.layer("eval.cold_us_per_plan", "us", probes.cold_us_per_plan);
    out.layer("eval.delta_us_per_plan", "us", probes.delta_us_per_plan);
    out.layer("eval.hit_us_per_plan", "us", probes.hit_us_per_plan);
    out.layer("kernel.compile_ms", "ms", kernel_compile_ms);
    out.layer("ga.survive_us", "us", probes.survive_us);
    out.layer("ga.archive_insert_us", "us", probes.archive_insert_us);
}

/// Hub-side per-layer figures of a set of open-loop requests.
pub fn hub_layers(out: &mut Outcome, served: &[Served], epochs_published: f64, rss_growth: f64) {
    let waits: Vec<f64> = served.iter().map(Served::wait_ms).collect();
    let service: Vec<f64> = served
        .iter()
        .filter_map(|s| s.report.as_ref().map(|r| r.latency_ms))
        .collect();
    let late: Vec<f64> = served
        .iter()
        .filter(|s| s.idle)
        .map(Served::wait_ms)
        .collect();
    let mut answered = HashSet::new();
    let mut repeats = 0usize;
    for s in served {
        if let Some(r) = &s.report {
            if !answered.insert((s.tenant, r.epoch)) {
                repeats += 1;
            }
        }
    }
    out.layer("hub.queue_wait_p50_ms", "ms", median(&waits));
    out.layer("hub.service_p50_ms", "ms", median(&service));
    out.layer("hub.generator_late_p90_ms", "ms", quantile(&late, 0.9));
    out.layer(
        "hub.repeat_share",
        "ratio",
        repeats as f64 / served.len().max(1) as f64,
    );
    out.layer("hub.epochs_published", "count", epochs_published);
    out.layer("hub.rss_growth_mb", "MiB", rss_growth);
}

/// The traced requests of `served` with their `hub.recommend` spans.
pub fn traced_views<'a>(tracer: &Tracer, served: &'a [Served]) -> Vec<RequestView<'a>> {
    let spans: HashMap<u64, f64> = tracer
        .layer("hub.recommend")
        .iter()
        .map(|span| (span.request, span.ms()))
        .collect();
    served
        .iter()
        .filter_map(|s| {
            Some(RequestView {
                report: &s.report.as_ref()?.report,
                request_ms: *spans.get(&s.id)?,
                model_ms: 0.0,
            })
        })
        .collect()
}

/// Resident-set figures of this process from `/proc/self/status`, in MiB:
/// `VmHWM` (peak) or `VmRSS` (current).
pub fn proc_mib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(key)?.strip_prefix(':')?;
            let kib: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}
