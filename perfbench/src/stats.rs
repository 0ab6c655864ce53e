//! Percentile and ratio helpers shared by every report.

/// Percentiles the tail report may use, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps `99.99% of 100000` at rank 99990 despite binary
/// rounding.
pub fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize).min(n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile on the ladder (99.99, 99.9, 99, 90, 50) that
/// leaves at least [`MIN_BEYOND`] samples beyond it; `None` when even
/// the median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// `num / den`, 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// [`ratio`] over counts.
pub fn per(num: u64, den: u64) -> f64 {
    ratio(num as f64, den as f64)
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_ranks() {
        assert_eq!(rank(100, 50.0), 50);
        assert_eq!(rank(100, 99.0), 99);
        assert_eq!(rank(100, 100.0), 100);
        assert_eq!(rank(100, 0.0), 1);
        assert_eq!(rank(100_000, 99.99), 99_990);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn ratios_survive_an_empty_base() {
        assert_eq!(per(3, 0), 0.0);
        assert_eq!(per(3, 4), 0.75);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
