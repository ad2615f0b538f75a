//! Online statistics helpers used by the metrics layer.

use serde::{Deserialize, Serialize};

/// Welford-style online mean plus min/max.
///
/// # Examples
///
/// ```
/// use manytest_sim::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), Some(1.0));
/// assert_eq!(s.max(), Some(3.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        self.max
    }
}

/// Fixed-bin histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, `lo >= hi`, or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one sample.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Per-bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Count of samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of samples at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded samples including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the bucket that contains the target rank.
    ///
    /// Underflow samples are pinned to `lo` and overflow samples to `hi`
    /// (the histogram does not retain their exact values). Returns `None`
    /// for an empty histogram or a `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Rank of the target sample, 1-based, clamped into [1, total].
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(self.lo);
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            if rank <= seen + c {
                // Interpolate within the bucket by the fraction of its
                // samples at or below the target rank.
                let frac = (rank - seen) as f64 / c as f64;
                return Some(self.lo + w * (i as f64 + frac));
            }
            seen += c;
        }
        Some(self.hi)
    }

    /// Median estimate; see [`Histogram::quantile`].
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate; see [`Histogram::quantile`].
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate; see [`Histogram::quantile`].
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// `(bin_center, count)` pairs, for plotting.
    pub fn centers(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + w * (i as f64 + 0.5), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(-0.1);
        h.push(0.0);
        h.push(9.999);
        h.push(10.0);
        h.push(5.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_centers() {
        let h = Histogram::new(0.0, 4.0, 4);
        let centers: Vec<f64> = h.centers().map(|(c, _)| c).collect();
        assert_eq!(centers, vec![0.5, 1.5, 2.5, 3.5]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        // 100 samples spread uniformly over [0, 10): quantiles should land
        // close to the ideal uniform quantiles.
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.push(i as f64 * 0.1);
        }
        let p50 = h.p50().unwrap();
        let p95 = h.p95().unwrap();
        let p99 = h.p99().unwrap();
        assert!((p50 - 5.0).abs() < 0.2, "p50 = {p50}");
        assert!((p95 - 9.5).abs() < 0.2, "p95 = {p95}");
        assert!((p99 - 9.9).abs() < 0.2, "p99 = {p99}");
        assert!(p50 < p95 && p95 < p99);
    }

    #[test]
    fn histogram_quantiles_empty_and_bounds() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), None);
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(0.5);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        assert!(h.quantile(0.0).is_some());
        assert!(h.quantile(1.0).is_some());
    }

    #[test]
    fn histogram_quantiles_pin_out_of_range_samples() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for _ in 0..10 {
            h.push(-5.0); // underflow, pinned to lo
        }
        for _ in 0..10 {
            h.push(50.0); // overflow, pinned to hi
        }
        assert_eq!(h.quantile(0.25), Some(0.0));
        assert_eq!(h.quantile(0.95), Some(10.0));
    }

    #[test]
    fn histogram_single_bucket_median() {
        let mut h = Histogram::new(0.0, 1.0, 1);
        for _ in 0..4 {
            h.push(0.5);
        }
        // All mass in one bucket: the median interpolates to the middle
        // of the occupied fraction.
        let p50 = h.p50().unwrap();
        assert!((0.0..=1.0).contains(&p50));
    }
}
