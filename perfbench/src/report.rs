//! The run's result: metrics by name and unit, the correctness verdict,
//! and the printed table plus the final JSON line.

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests plus ingest batches).
    pub attempted: u64,
    /// Failed checks, one line each; empty when every answer was correct.
    pub failures: Vec<String>,
    /// Operations that failed (panicked, went unanswered or failed a
    /// check).
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Per-request attribution of `recommender.request_ms` to layers, in
    /// milliseconds (traced run only).
    pub attribution: Vec<(&'static str, f64)>,
    /// Free-form lines printed above the tables.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.e2e.push(Metric { name, unit, value });
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.layers.push(Metric { name, unit, value });
    }

    /// Record a failed check against one operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Print the human-readable tables to stdout, then the JSON result as
    /// the last line. `traced` selects which metric set the JSON carries.
    pub fn print(&self, workload: &str, traced: bool) {
        println!("workload {workload}");
        for note in &self.notes {
            println!("  {note}");
        }
        println!("end-to-end:");
        for m in &self.e2e {
            println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
        }
        if traced {
            println!("per layer:");
            for m in &self.layers {
                println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
            }
            let total: f64 = self.attribution.iter().map(|(_, ms)| ms).sum();
            println!("recommender.request_ms by layer (ranked, mean per request):");
            let mut ranked = self.attribution.clone();
            ranked.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
            for (layer, ms) in ranked {
                let share = if total != 0.0 {
                    100.0 * ms / total
                } else {
                    0.0
                };
                println!("  {layer:<28} {ms:>10.3} ms {share:>6.1} %");
            }
            println!("  {:<28} {total:>10.3} ms", "sum = recommender.request_ms");
        }
        for failure in self.failures.iter().take(20) {
            println!("FAILED: {failure}");
        }
        let metrics = if traced { &self.layers } else { &self.e2e };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not finite");
    format!("{value:?}")
}
