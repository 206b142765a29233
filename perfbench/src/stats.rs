//! Order statistics over raw samples.
//!
//! Percentiles are computed from every recorded sample, never from
//! histogram buckets: the repository's `LatencyHistogram` buckets are up to
//! 6.25% wide, which is most of a 10% regression bound.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `q` of all samples at or below it.
/// Returns NaN for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by the nearest-rank rule (see [`percentile`]).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Number of samples strictly above the `q`-quantile: a percentile is
/// only reported as resolved when at least ten samples lie beyond it.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let p = percentile(samples, q);
    samples.iter().filter(|&&s| s > p).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_come_from_raw_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(beyond(&samples, 0.99), 1);
    }

    #[test]
    fn percentiles_resolve_values_a_log_bucket_would_merge() {
        // 1000 and 1040 differ by 4%, less than one 6.25% log bucket; the
        // raw-sample p99 still tells them apart.
        let mut samples = vec![1000.0; 990];
        samples.extend(std::iter::repeat(1040.0).take(10));
        assert_eq!(percentile(&samples, 0.99), 1000.0);
        samples.push(1040.0);
        assert_eq!(percentile(&samples, 0.99), 1040.0);
    }

    #[test]
    fn order_of_samples_does_not_matter_and_empty_is_nan() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }
}
