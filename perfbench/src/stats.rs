//! Quantiles from raw samples, with the sample count they rest on.
//!
//! A tail percentile is only reported when at least [`MIN_TAIL`] samples
//! lie beyond it; with fewer samples the helper falls back to the highest
//! percentile that still has that many.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// A quantile read from raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The quantile actually reported (may be below the one asked for).
    pub q: f64,
    pub value: f64,
    /// Samples it was computed from.
    pub n: usize,
}

/// Nearest-rank index of quantile `q` among `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median of `sorted` (nearest rank), or `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(0.5, sorted.len())])
}

/// The `q` quantile of `sorted` if at least [`MIN_TAIL`] samples lie
/// beyond it; otherwise the highest quantile that has them; `None` when
/// there are too few samples for any.
pub fn tail(sorted: &[f64], q: f64) -> Option<Quantile> {
    let n = sorted.len();
    if n <= MIN_TAIL {
        return None;
    }
    let mut idx = rank(q, n);
    let mut q = q;
    if n - 1 - idx < MIN_TAIL {
        idx = n - 1 - MIN_TAIL;
        q = (idx + 1) as f64 / n as f64;
    }
    Some(Quantile { q, value: sorted[idx], n })
}

/// Mean of the lowest `share` of `sorted` (at least one sample), or
/// `None` when empty.  Unlike the median it moves in proportion when the
/// samples are a mixture of two well-separated modes whose weights
/// change, instead of jumping from one mode to the other.
pub fn low_mean(sorted: &[f64], share: f64) -> Option<f64> {
    let k = ((share * sorted.len() as f64).floor() as usize).clamp(1, sorted.len().max(1));
    (!sorted.is_empty()).then(|| sorted[..k].iter().sum::<f64>() / k as f64)
}

/// Sort samples for [`median`], [`tail`] and [`low_mean`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: the p99 is sample 990 and 10 lie beyond it.
        let q = tail(&ramp(1000), 0.99).unwrap();
        assert_eq!((q.q, q.value, q.n), (0.99, 990.0, 1000));
        // 500 samples: p99 would leave 5 beyond; fall back to p98.
        let q = tail(&ramp(500), 0.99).unwrap();
        assert_eq!(q.value, 490.0);
        assert!((q.q - 0.98).abs() < 1e-12);
        assert_eq!(ramp(500).iter().filter(|&&v| v > q.value).count(), MIN_TAIL);
        // Too few samples for any tail.
        assert_eq!(tail(&ramp(10), 0.99), None);
        assert_eq!(tail(&ramp(11), 0.99).unwrap().value, 1.0);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(sorted(vec![3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn low_mean_drops_the_slowest_and_moves_with_the_mix() {
        // 1..=100: the fastest 99 average 50; the slowest sample is out.
        assert_eq!(low_mean(&ramp(100), 0.99), Some(50.0));
        assert_eq!(low_mean(&ramp(1), 0.99), Some(1.0));
        assert_eq!(low_mean(&[], 0.99), None);
        // Two modes, 1.0 and 2.0: moving the mix from 49% to 51% slow
        // samples flips the median but moves the mean by 0.02.
        let mix =
            |slow: usize| sorted((0..100).map(|i| if i < slow { 2.0 } else { 1.0 }).collect());
        assert_eq!((median(&mix(49)), median(&mix(51))), (Some(1.0), Some(2.0)));
        let (a, b) = (low_mean(&mix(49), 1.0).unwrap(), low_mean(&mix(51), 1.0).unwrap());
        assert!((b - a - 0.02).abs() < 1e-12);
    }
}
