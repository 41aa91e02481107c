//! Order statistics over timing samples.

/// Sorts a copy of `xs` (NaN-free samples) in ascending order.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the middle pair for an even count), or `None`
/// when there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(xs, n=4)`: the rank `i * (len + 1) / 4`
/// interpolated between the neighbours of its clamped position.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let len = v.len();
    match len {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = len + 1;
            let at = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((at(1), at(3)))
        }
    }
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    // In integer per-mille, so that e.g. p99.9 of 20000 is rank 19980
    // exactly rather than a float rounding above it.
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Samples lying beyond percentile `p` of `n` samples (nearest rank).
pub fn beyond(p: f64, n: usize) -> usize {
    n - nearest_rank(p, n)
}

/// The highest percentile, at most `cap`, with at least [`MIN_BEYOND`]
/// samples beyond it, and its value: `(percentile, value)`. `None` when
/// even the median has fewer than [`MIN_BEYOND`] samples above it.
pub fn tail(xs: &[f64], cap: f64) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    TAIL_PERCENTILES
        .iter()
        .copied()
        .filter(|&p| p <= cap)
        .find(|&p| n > 0 && beyond(p, n) >= MIN_BEYOND)
        .map(|p| (p, v[nearest_rank(p, n) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([7, 1, 4, 9], n=4) == [1.75, 5.5, 8.5]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0, 9.0]), Some((1.75, 8.5)));
        // Two samples extrapolate past the ends: [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[6.0]), Some((6.0, 6.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(99.0, 1000), 10);
        assert_eq!(beyond(99.0, 999), 9);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Some((99.0, 990.0)));
        // One sample short: the tail falls back to p95 (rank 950 of 999).
        assert_eq!(tail(&xs[..999], 99.0), Some((95.0, 950.0)));
        // The cap bounds the percentile even when more would qualify.
        let many: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&many, 99.0), Some((99.0, 19_800.0)));
        assert_eq!(tail(&many, 100.0), Some((99.9, 19_980.0)));
    }

    #[test]
    fn tail_is_absent_below_twenty_samples() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Some((50.0, 10.0)));
    }
}
