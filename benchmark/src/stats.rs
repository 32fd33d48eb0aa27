//! Order statistics for the benchmark's reported figures.

/// Median; the mean of the two middle values for an even count (the
/// convention of Python's `statistics.median`). `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q·n`
/// samples at or below it (`0 < q <= 1`). `NaN` for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), q) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `q` percentile of
/// `n` samples. A percentile is reported only when this is at least 10.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// 1-based nearest rank, `ceil(q·n)` clamped to `1..=n`. The product is
/// rounded to 9 decimals first so that `0.99 × 1000` ranks 990, not 991.
fn rank(n: usize, q: f64) -> usize {
    let x = (q * n as f64 * 1e9).round() / 1e9;
    (x.ceil() as usize).clamp(1, n)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[5.0, 1.0], 0.5), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(0, 0.99), 0);
    }
}
