//! Order statistics over timing samples.

/// Returns `values` sorted ascending.
///
/// # Panics
///
/// Panics if a value is NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Percentile `p` (in `[0, 1]`) of ascending `sorted` values, linearly
/// interpolated between closest ranks: `p = 0.25` and `p = 0.75` give the
/// quartiles.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of `values` in any order.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.75), 4.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        let even = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&even, 0.25), 17.5);
        assert_eq!(percentile(&even, 0.75), 32.5);
        assert!((percentile(&even, 0.66) - 29.8).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
