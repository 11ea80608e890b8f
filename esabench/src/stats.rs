//! Order statistics for the benchmark's latency samples.
//!
//! Percentiles use the nearest-rank rule. A failed operation enters a
//! sample set as `+∞`, so it misses every latency limit and drags the tail
//! up rather than silently leaving the set. The tail percentile reported
//! is the highest whole percentile (at most the one asked for) that still
//! has at least [`TAIL_MIN_BEYOND`] samples above it.

/// Samples a reported tail percentile must leave above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// One reported order statistic: which percentile, its value, and the
/// number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest whole percentile in `50..=want` with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; 50 when even the median has
/// fewer (then the tail is just the median).
pub fn tail_percentile(n: usize, want: u32) -> u32 {
    (50..=want)
        .rev()
        .find(|&p| n >= rank(n.max(1), f64::from(p)) + TAIL_MIN_BEYOND)
        .unwrap_or(50)
}

/// A latency distribution; failures are `f64::INFINITY`.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    fn at(&self, p: f64) -> Quantile {
        let n = self.sorted.len();
        Quantile {
            percentile: p,
            value: if n == 0 {
                f64::NAN
            } else {
                self.sorted[rank(n, p) - 1]
            },
            samples: n,
        }
    }

    pub fn p50(&self) -> Quantile {
        self.at(50.0)
    }

    /// The tail statistic: `want` (e.g. 99) when the set is large enough,
    /// otherwise the highest percentile that keeps ten samples beyond it.
    pub fn tail(&self, want: u32) -> Quantile {
        self.at(f64::from(tail_percentile(self.sorted.len(), want)))
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }
}

/// Median of finite values (`NaN` for an empty set).
pub fn median(values: &[f64]) -> f64 {
    Dist::new(values.to_vec()).p50().value
}

/// Least-squares slope of `y` over `x`; `0.0` with fewer than two distinct
/// `x` values.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 99), 99);
        assert_eq!(tail_percentile(999, 99), 98);
        // 500 samples: p98 has exactly ten above rank 490.
        assert_eq!(tail_percentile(500, 99), 98);
        assert_eq!(tail_percentile(100, 99), 90);
        assert_eq!(tail_percentile(19, 99), 50);
        assert_eq!(tail_percentile(0, 99), 50);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let d = Dist::new((1..=1000).map(f64::from).collect());
        assert_eq!(d.p50().value, 500.0);
        let tail = d.tail(99);
        assert_eq!(
            (tail.percentile, tail.value, tail.samples),
            (99.0, 990.0, 1000)
        );
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        // 2% of 1000 operations failed: they sit above every finite
        // sample, so p99 lands on a failure and reads +inf.
        let mut values: Vec<f64> = (1..=980).map(f64::from).collect();
        values.extend(std::iter::repeat_n(f64::INFINITY, 20));
        let d = Dist::new(values);
        assert_eq!(d.p50().value, 500.0);
        assert!(d.tail(99).value.is_infinite());
        // With 0.5% failed, p99 is still finite.
        let mut values: Vec<f64> = (1..=995).map(f64::from).collect();
        values.extend(std::iter::repeat_n(f64::INFINITY, 5));
        assert_eq!(Dist::new(values).tail(99).value, 990.0);
    }

    #[test]
    fn slope_of_a_line_and_of_noise_around_flat() {
        let line: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&line) - 3.0).abs() < 1e-12);
        let flat = [(0.0, 5.0), (1.0, 6.0), (2.0, 5.0), (3.0, 6.0)];
        assert!(slope(&flat).abs() < 0.5);
        assert_eq!(slope(&[(1.0, 1.0)]), 0.0);
    }
}
