//! Correctness checks on returned recommendations.

use atlas_core::recommender::RecommendationReport;
use atlas_core::{random_site, MigrationPlan, QualityModel, RecommendedPlan, Recommender};
use atlas_sim::SiteId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fleet::recommender_config;
use crate::hv::{hypervolume, Bounds};

/// Re-score every plan with the interpretive reference scorer and compare
/// with the quality the advisor reported, then check the front is
/// non-dominated. Returns the first discrepancy.
pub fn verify_front(model: &QualityModel, plans: &[RecommendedPlan]) -> Result<(), String> {
    if plans.is_empty() {
        return Err("empty recommendation".into());
    }
    for (i, p) in plans.iter().enumerate() {
        let reference = model.evaluate_interpretive(&p.plan);
        if reference != p.quality {
            return Err(format!(
                "plan {i}: reported {:?}, re-scored {:?}",
                p.quality, reference
            ));
        }
    }
    for (i, a) in plans.iter().enumerate() {
        for (j, b) in plans.iter().enumerate() {
            if i != j && a.quality.feasible == b.quality.feasible && dominates(a, b) {
                return Err(format!("plan {i} dominates plan {j} on the returned front"));
            }
        }
    }
    Ok(())
}

fn dominates(a: &RecommendedPlan, b: &RecommendedPlan) -> bool {
    let (x, y) = (a.quality.objectives(), b.quality.objectives());
    x.iter().zip(&y).all(|(p, q)| p <= q) && x.iter().zip(&y).any(|(p, q)| p < q)
}

/// The serial ground truth of one published model: a fresh recommender
/// run on one thread.
pub fn serial_truth(model: &QualityModel) -> RecommendationReport {
    Recommender::new(model, recommender_config().with_threads(1)).recommend()
}

/// Hypervolume of a front under fixed normalisation bounds.
pub fn front_hv(bounds: &Bounds, plans: &[RecommendedPlan]) -> f64 {
    let points: Vec<[f64; 3]> = plans
        .iter()
        .filter(|p| p.quality.feasible)
        .map(|p| bounds.normalise(p.quality.objectives()))
        .collect();
    hypervolume(&points)
}

/// Normalisation bounds of one model, fixed at set-up: the objective range
/// spanned by the current placement, everything in the cloud and 64 seeded
/// random placements.
pub fn bounds_of(model: &QualityModel, seed: u64) -> Bounds {
    let n = model.component_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plans = vec![
        MigrationPlan::from_sites(vec![SiteId::ON_PREM; n]),
        MigrationPlan::from_sites(vec![SiteId::CLOUD; n]),
    ];
    for _ in 0..64 {
        let cloud = rng.gen_range(0.05..0.95);
        plans.push(MigrationPlan::from_sites(
            (0..n)
                .map(|_| random_site(&mut rng, cloud, model.site_count()))
                .collect(),
        ));
    }
    let points: Vec<[f64; 3]> = plans
        .iter()
        .map(|p| model.evaluate(p).objectives())
        .collect();
    Bounds::of(&points)
}
