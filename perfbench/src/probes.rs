//! Layer probes: direct calls into single layers at the workload's scale,
//! for the per-layer figures the end-to-end runner cannot observe from
//! outside a request. Only this module names the evaluator, the crossover
//! agent, NSGA-II survival and the Pareto archive.

use std::collections::HashMap;
use std::time::Instant;

use atlas_core::{
    random_site, CrossoverAgent, DriftDetector, MigrationPlan, PlanEvaluator, PlanQuality,
    QualityModel, ScoredPlan, ARCHIVE_CAPACITY,
};
use atlas_ga::nsga2::survive;
use atlas_ga::ParetoArchive;
use atlas_sim::SiteId;
use atlas_telemetry::TelemetryStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fleet::recommender_config;

/// Per-call costs measured by the probes, in microseconds.
#[derive(Clone, Copy)]
pub struct Probes {
    /// Cold (uncached, scalar-thread) plan scoring.
    pub cold_us_per_plan: f64,
    /// Offspring scoring against a retained parent, two genes changed.
    pub delta_us_per_plan: f64,
    /// A memo-cache hit.
    pub hit_us_per_plan: f64,
    /// One `train_scored` iteration with every score memoised.
    pub train_us_per_iter: f64,
    /// One `crossover_sites` call of a trained agent.
    pub crossover_us: f64,
    /// One NSGA-II survival over a population plus its offspring.
    pub survive_us: f64,
    /// One Pareto-archive insert.
    pub archive_insert_us: f64,
}

impl Probes {
    /// The mean of two probe runs; the traced runs probe before and after
    /// the workload so the per-call costs sample the machine as the
    /// requests did.
    pub fn mean(&self, other: &Probes) -> Probes {
        let m = |a: f64, b: f64| (a + b) / 2.0;
        Probes {
            cold_us_per_plan: m(self.cold_us_per_plan, other.cold_us_per_plan),
            delta_us_per_plan: m(self.delta_us_per_plan, other.delta_us_per_plan),
            hit_us_per_plan: m(self.hit_us_per_plan, other.hit_us_per_plan),
            train_us_per_iter: m(self.train_us_per_iter, other.train_us_per_iter),
            crossover_us: m(self.crossover_us, other.crossover_us),
            survive_us: m(self.survive_us, other.survive_us),
            archive_insert_us: m(self.archive_insert_us, other.archive_insert_us),
        }
    }
}

fn per_call_us(start: Instant, calls: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Run every probe against one model.
pub fn run(model: &QualityModel, seed: u64) -> Probes {
    let config = recommender_config();
    let n = model.component_count();
    let sites = model.site_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let plans: Vec<MigrationPlan> = (0..256)
        .map(|_| {
            let cloud = rng.gen_range(0.05..0.95);
            MigrationPlan::from_sites(
                (0..n)
                    .map(|_| random_site(&mut rng, cloud, sites))
                    .collect(),
            )
        })
        .collect();

    let evaluator = PlanEvaluator::new(model).with_threads(1);
    let start = Instant::now();
    let qualities = evaluator.evaluate_batch(&plans);
    let cold_us_per_plan = per_call_us(start, plans.len());
    let start = Instant::now();
    std::hint::black_box(evaluator.evaluate_batch(&plans));
    let hit_us_per_plan = per_call_us(start, plans.len());

    let evaluator = PlanEvaluator::new(model).with_threads(1);
    let parents: Vec<ScoredPlan> = evaluator.evaluate_scored_batch(&plans[..64]);
    let children: Vec<MigrationPlan> = (0..plans.len())
        .map(|i| {
            let mut sites_of = parents[i % parents.len()].sites().to_vec();
            for _ in 0..2 {
                let c = rng.gen_range(0..n);
                sites_of[c] = if sites_of[c] == SiteId::ON_PREM {
                    SiteId::CLOUD
                } else {
                    SiteId::ON_PREM
                };
            }
            MigrationPlan::from_sites(sites_of)
        })
        .collect();
    let anchors: Vec<&ScoredPlan> = (0..children.len())
        .map(|i| &parents[i % parents.len()])
        .collect();
    let start = Instant::now();
    std::hint::black_box(evaluator.evaluate_offspring_batch(&anchors, &children));
    let delta_us_per_plan = per_call_us(start, children.len());

    // The agent trains on the search's initial population; memoising the
    // scorer leaves the actor-critic's own cost.
    let population = &parents[..config.population];
    let mut memo: HashMap<Vec<SiteId>, PlanQuality> = HashMap::new();
    let mut score = |_: &ScoredPlan, _: &ScoredPlan, child: &MigrationPlan| {
        *memo
            .entry(child.to_sites())
            .or_insert_with(|| model.evaluate(child))
    };
    CrossoverAgent::new(n, config.rl.clone())
        .with_site_count(sites)
        .train_scored(population, &mut score);
    let mut agent = CrossoverAgent::new(n, config.rl.clone()).with_site_count(sites);
    let start = Instant::now();
    let rewards = agent.train_scored(population, &mut score);
    let train_us_per_iter = per_call_us(start, rewards.len());
    let start = Instant::now();
    for i in 0..512 {
        let (a, b) = (&plans[i % 256], &plans[(i * 7 + 1) % 256]);
        std::hint::black_box(agent.crossover_sites(a.sites(), b.sites()));
    }
    let crossover_us = per_call_us(start, 512);

    let objectives: Vec<[f64; 3]> = qualities[..2 * config.population]
        .iter()
        .map(PlanQuality::objectives)
        .collect();
    let feasible: Vec<bool> = qualities[..2 * config.population]
        .iter()
        .map(|q| q.feasible)
        .collect();
    let start = Instant::now();
    for _ in 0..200 {
        std::hint::black_box(survive(&objectives, &feasible, config.population));
    }
    let survive_us = per_call_us(start, 200);

    let mut archive: ParetoArchive<MigrationPlan, [f64; 3]> = ParetoArchive::new(ARCHIVE_CAPACITY);
    let start = Instant::now();
    for (plan, quality) in plans.iter().zip(&qualities) {
        archive.insert(plan, quality.objectives());
    }
    let archive_insert_us = per_call_us(start, plans.len());

    Probes {
        cold_us_per_plan,
        delta_us_per_plan,
        hit_us_per_plan,
        train_us_per_iter,
        crossover_us,
        survive_us,
        archive_insert_us,
    }
}

/// One pass of the service's drift check over a store: every API's
/// retained latencies against a detector armed on them, with the
/// service's `window`. Microseconds per pass.
pub fn monitor_check_us(store: &TelemetryStore, window: usize) -> f64 {
    let armed: Vec<(String, DriftDetector)> = store
        .apis()
        .into_iter()
        .filter_map(|api| {
            let samples = store.api_latencies_ms(&api);
            (samples.len() >= window).then(|| {
                let fresh = samples[samples.len() - window..].to_vec();
                (api, DriftDetector::new(samples, &fresh))
            })
        })
        .collect();
    let passes = 20;
    let start = Instant::now();
    for _ in 0..passes {
        for (api, detector) in &armed {
            let samples = store.api_latencies_ms(api);
            std::hint::black_box(detector.check(&samples[samples.len() - window..]));
        }
    }
    per_call_us(start, passes)
}
