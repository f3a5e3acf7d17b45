//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Nearest-rank percentile `p` (0..=100) of already sorted samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `xs` and returns the requested percentiles.
pub fn percentiles(xs: &mut [f64], ps: &[f64]) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    ps.iter().map(|&p| percentile_sorted(xs, p)).collect()
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, so the figure is not set by one or two
/// outliers. Falls back to the median for tiny samples.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // In hundredths of a percent, so "ten beyond" is exact arithmetic.
    const LADDER: [usize; 6] = [9999, 9990, 9900, 9500, 9000, 7500];
    LADDER
        .into_iter()
        .find(|p| n * (10_000 - p) >= 10 * 10_000)
        .map_or(50.0, |p| p as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(max(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let got = percentiles(&mut xs, &[50.0, 95.0, 100.0, 0.0]);
        assert_eq!(got, vec![50.0, 95.0, 100.0, 1.0]);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(12_400), 99.9);
        assert_eq!(highest_supported_percentile(100_000), 99.99);
    }
}
