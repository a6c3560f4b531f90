//! The Atlas benchmark: one command per workload that drives the advisor
//! hub, the resident service and the what-if advisor through their public
//! entry points, checks every answer, and prints every metric by name and
//! unit with a JSON result as the last line.
//!
//! ```text
//! atlas-perfbench --workload <hub-steady|hub-drift|advise-whatif> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around the benchmark's calls into each layer, plus
//! the layer probes, and reports the per-layer metrics.

mod check;
mod fleet;
mod hub_drift;
mod hub_steady;
mod hv;
mod layers;
mod probes;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;
mod whatif;

use std::time::Instant;

/// End-to-end metrics every workload reports, in `BENCHMARK.json` order.
const E2E: [&str; 9] = [
    "advise_p50_ms",
    "advise_p90_ms",
    "capacity_rps",
    "ok_ratio",
    "front_hv",
    "drift_react_ms",
    "ingest_traces_per_s",
    "setup_s",
    "rss_peak_mb",
];

/// Per-layer metrics every traced run reports.
const LAYERS: [&str; 31] = [
    "hub.queue_wait_p50_ms",
    "hub.service_p50_ms",
    "hub.generator_late_p90_ms",
    "hub.repeat_share",
    "hub.epochs_published",
    "hub.rss_growth_mb",
    "recommender.request_ms",
    "recommender.visited",
    "recommender.distinct_ratio",
    "recommender.unattributed_ms",
    "rl.iterations",
    "rl.train_us_per_iter",
    "rl.crossover_us",
    "eval.unique_per_request",
    "eval.hit_ratio",
    "eval.score_ms",
    "eval.cold_us_per_plan",
    "eval.delta_us_per_plan",
    "eval.hit_us_per_plan",
    "kernel.compile_ms",
    "ga.survive_us",
    "ga.archive_insert_us",
    "telemetry.ingest_us_per_trace",
    "telemetry.evicted_per_batch",
    "telemetry.retained_traces",
    "monitor.check_us_per_batch",
    "service.drift_reactions",
    "profile.relearn_ms",
    "setup.generate_s",
    "setup.bootstrap_s",
    "trace.overhead_pct",
];

/// One run's settings.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker threads: one per available core.
    pub nproc: usize,
    /// Clock origin of the run.
    pub origin: Instant,
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: atlas-perfbench --workload <hub-steady|hub-drift|advise-whatif> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> String {
        let i = args
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("missing {flag}")));
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let number = |flag: &str| -> u64 {
        value(flag)
            .parse()
            .unwrap_or_else(|_| usage(&format!("{flag} must be a whole number")))
    };
    let workload = value("--workload");
    let run = Run {
        seed: number("--seed"),
        seconds: number("--seconds"),
        trace: match number("--trace") {
            0 => false,
            1 => true,
            _ => usage("--trace must be 0 or 1"),
        },
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        origin: Instant::now(),
    };
    if !(5..=600).contains(&run.seconds) {
        usage("--seconds must be between 5 and 600");
    }
    let outcome = match workload.as_str() {
        "hub-steady" => hub_steady::run(&run),
        "hub-drift" => hub_drift::run(&run),
        "advise-whatif" => whatif::run(&run),
        other => usage(&format!("unknown workload {other}")),
    };
    let names = |metrics: &[report::Metric]| {
        let mut n: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        n.sort_unstable();
        n
    };
    let mut expected: Vec<&str> = if run.trace {
        LAYERS.to_vec()
    } else {
        E2E.to_vec()
    };
    expected.sort_unstable();
    let reported = if run.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    assert_eq!(
        names(reported),
        expected,
        "every listed metric is reported once"
    );
    println!(
        "machine: {} cores available; seed {}, {} s measured",
        run.nproc, run.seed, run.seconds
    );
    outcome.print(&workload, run.trace);
    if outcome.failed > 0 {
        // A failed check fails the command, after the result is printed.
        std::process::exit(1);
    }
}
