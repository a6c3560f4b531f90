//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by nearest rank; `0.0` for
/// an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest tail percentile the samples support: p90 needs at least ten
/// samples beyond it (100 samples). Panics below that, so a run that is too
/// short fails instead of reporting a percentile resting on a few calls.
pub fn p90(values: &[f64]) -> f64 {
    assert!(
        values.len() >= 100,
        "p90 needs 100 samples for a 10-sample tail, got {}",
        values.len()
    );
    quantile(values, 0.9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(p90(&v), 90.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
