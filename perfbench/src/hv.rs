//! Exact hypervolume of a three-objective front (all objectives
//! minimised), the quality measure of a recommendation's Pareto front.
//!
//! Objectives are first normalised into `[0, 1]` with per-tenant bounds
//! fixed at set-up ([`Bounds`]); the hypervolume is then the volume of the
//! union of boxes `[p, r]` over the front's points, with the reference
//! point `r` 10 % beyond the worst bound in every objective so that a plan
//! at a bound still counts. It is deterministic, so a change that degrades
//! advice at equal budget shows as a lower figure.

/// Reference point coordinate in every normalised objective.
pub const REFERENCE: f64 = 1.1;

/// Per-objective normalisation bounds: `lo` maps to 0, `hi` to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Best value seen per objective.
    pub lo: [f64; 3],
    /// Worst value seen per objective.
    pub hi: [f64; 3],
}

impl Bounds {
    /// The tightest bounds containing every point.
    pub fn of(points: &[[f64; 3]]) -> Self {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for p in points {
            for k in 0..3 {
                lo[k] = lo[k].min(p[k]);
                hi[k] = hi[k].max(p[k]);
            }
        }
        Bounds { lo, hi }
    }

    /// `p` mapped into the unit cube (values beyond `hi` exceed 1; beyond
    /// [`REFERENCE`] they contribute no volume).
    pub fn normalise(&self, p: [f64; 3]) -> [f64; 3] {
        let mut out = [0.0; 3];
        for k in 0..3 {
            let span = (self.hi[k] - self.lo[k]).max(1e-12);
            out[k] = ((p[k] - self.lo[k]) / span).max(0.0);
        }
        out
    }
}

/// Exact hypervolume dominated by `points` (already normalised) up to the
/// reference point `(r, r, r)`, `r` = [`REFERENCE`]. Sweeps the third objective: between two
/// consecutive distinct values the cross-section is the 2-D staircase area
/// of every point at or below the slab.
pub fn hypervolume(points: &[[f64; 3]]) -> f64 {
    let mut pts: Vec<[f64; 3]> = points
        .iter()
        .copied()
        .filter(|p| p.iter().all(|&x| x < REFERENCE))
        .collect();
    pts.sort_by(|a, b| a[2].total_cmp(&b[2]));
    let mut volume = 0.0;
    for i in 0..pts.len() {
        let z_next = if i + 1 < pts.len() {
            pts[i + 1][2]
        } else {
            REFERENCE
        };
        let depth = z_next - pts[i][2];
        if depth > 0.0 {
            volume += area_2d(&pts[..=i]) * depth;
        }
    }
    volume
}

/// Area dominated by the points' first two objectives up to `(r, r)`.
fn area_2d(points: &[[f64; 3]]) -> f64 {
    let mut xy: Vec<(f64, f64)> = points.iter().map(|p| (p[0], p[1])).collect();
    xy.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut area = 0.0;
    let mut best_y = REFERENCE;
    for (i, &(x, y)) in xy.iter().enumerate() {
        best_y = f64::min(best_y, y);
        let x_next = if i + 1 < xy.len() {
            xy[i + 1].0
        } else {
            REFERENCE
        };
        area += (x_next - x) * (REFERENCE - best_y);
    }
    area
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute force: split the cube at every point coordinate and add up the
    /// cells whose lower corner some point dominates.
    fn brute_force(points: &[[f64; 3]]) -> f64 {
        let axis = |k: usize| {
            let mut c: Vec<f64> = points.iter().map(|p| p[k].min(REFERENCE)).collect();
            c.push(REFERENCE);
            c.sort_by(f64::total_cmp);
            c.dedup();
            c
        };
        let (xs, ys, zs) = (axis(0), axis(1), axis(2));
        let mut volume = 0.0;
        for xw in xs.windows(2) {
            for yw in ys.windows(2) {
                for zw in zs.windows(2) {
                    let corner = [xw[0], yw[0], zw[0]];
                    if points.iter().any(|p| (0..3).all(|k| p[k] <= corner[k])) {
                        volume += (xw[1] - xw[0]) * (yw[1] - yw[0]) * (zw[1] - zw[0]);
                    }
                }
            }
        }
        volume
    }

    #[test]
    fn single_point_is_its_box() {
        let v = hypervolume(&[[0.5, 0.25, 0.0]]);
        assert!((v - 0.6 * 0.85 * 1.1).abs() < 1e-12);
        assert_eq!(hypervolume(&[]), 0.0);
        assert_eq!(hypervolume(&[[1.2, 0.0, 0.0]]), 0.0);
        assert!(hypervolume(&[[1.0, 1.0, 1.0]]) > 0.0);
    }

    #[test]
    fn dominated_points_add_nothing() {
        let front = [[0.2, 0.2, 0.2]];
        let with_dominated = [[0.2, 0.2, 0.2], [0.5, 0.6, 0.3]];
        assert!((hypervolume(&front) - hypervolume(&with_dominated)).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_random_fronts() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in 1..=9 {
            for _ in 0..40 {
                let points: Vec<[f64; 3]> = (0..n)
                    .map(|_| {
                        // Coarse grid values so ties in every axis occur,
                        // some beyond the reference point.
                        let mut p = [0.0; 3];
                        for x in &mut p {
                            *x = (rng.gen_range(0..13u32) as f64) / 10.0;
                        }
                        p
                    })
                    .collect();
                let fast = hypervolume(&points);
                let slow = brute_force(&points);
                assert!((fast - slow).abs() < 1e-12, "{points:?}: {fast} vs {slow}");
            }
        }
    }

    #[test]
    fn normalisation_maps_bounds_to_unit_cube() {
        let b = Bounds::of(&[[1.0, 10.0, 100.0], [3.0, 30.0, 300.0]]);
        assert_eq!(b.normalise([1.0, 10.0, 100.0]), [0.0, 0.0, 0.0]);
        assert_eq!(b.normalise([3.0, 30.0, 300.0]), [1.0, 1.0, 1.0]);
        assert_eq!(b.normalise([2.0, 20.0, 200.0]), [0.5, 0.5, 0.5]);
    }
}
