//! Lightweight time-series tracing.
//!
//! The bench harness regenerates the paper's figures from traces recorded
//! during a run: power over time, utilisation over time, tests in flight, …
//! A [`Trace`] is a named collection of [`TraceSeries`], each a vector of
//! `(t_seconds, value)` points.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A single named series of `(time, value)` samples.
///
/// A series is unbounded by default. [`TraceSeries::with_bound`] caps the
/// stored sample count: when the cap is reached the series halves itself
/// (keeping every second point) and doubles its sampling stride, so a
/// multi-second run records a uniform thinning of the full signal in
/// bounded memory instead of growing without limit.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSeries {
    points: Vec<(f64, f64)>,
    bound: Option<usize>,
    /// Keep one sample out of every `stride` offered (power of two).
    stride: u64,
    /// Samples offered via `push` over the series' lifetime.
    seen: u64,
}

impl TraceSeries {
    /// Creates an empty, unbounded series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty series that stores at most `max_samples` points,
    /// decimating on insert once the cap is reached.
    ///
    /// # Panics
    ///
    /// Panics if `max_samples < 2` — a bounded series must at least be
    /// able to retain a first and a latest sample.
    pub fn with_bound(max_samples: usize) -> Self {
        assert!(
            max_samples >= 2,
            "trace bound must be at least 2, got {max_samples}"
        );
        TraceSeries {
            bound: Some(max_samples),
            ..Self::default()
        }
    }

    /// The sample cap, if this series is bounded.
    pub fn bound(&self) -> Option<usize> {
        self.bound
    }

    /// Appends a sample at time `t` (seconds). On a bounded series the
    /// sample may be decimated away; the thinning is deterministic (a
    /// function of the push count alone, never of time or memory).
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last recorded sample.
    pub fn push(&mut self, t: f64, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "trace time must be monotone: {t} < {last}");
        }
        let stride = self.stride.max(1);
        let keep = self.seen % stride == 0;
        self.seen += 1;
        if !keep {
            return;
        }
        if let Some(bound) = self.bound {
            if self.points.len() >= bound {
                // Halve: keep even indices (offered-index multiples of the
                // doubled stride), then record every second sample onward.
                let mut i = 0;
                self.points.retain(|_| {
                    let keep = i % 2 == 0;
                    i += 1;
                    keep
                });
                self.stride = stride * 2;
                if (self.seen - 1) % self.stride != 0 {
                    return; // this sample falls off the coarser grid
                }
            }
        }
        self.points.push((t, value));
    }

    /// The recorded samples.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Largest recorded value, if any.
    pub fn max_value(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |acc, v| {
            Some(acc.map_or(v, |a: f64| a.max(v)))
        })
    }

    /// Arithmetic mean of the recorded values (unweighted), if any.
    pub fn mean_value(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64)
        }
    }

    /// Downsamples to at most `n` evenly spaced points (keeps endpoints).
    /// Index rounding never emits the same source point twice, so the
    /// result can be shorter than `n` for very small `n`.
    pub fn downsample(&self, n: usize) -> TraceSeries {
        if n == 0 || self.points.len() <= n {
            return self.clone();
        }
        let last_idx = self.points.len() - 1;
        let step = last_idx as f64 / (n - 1) as f64;
        let mut points = Vec::with_capacity(n);
        let mut prev = usize::MAX;
        for i in 0..n {
            // n == 1 makes step infinite and 0 * inf NaN; the saturating
            // cast turns both into index 0, which is the right endpoint.
            let idx = ((i as f64 * step).round() as usize).min(last_idx);
            if idx != prev {
                points.push(self.points[idx]);
                prev = idx;
            }
        }
        TraceSeries {
            points,
            ..Self::default()
        }
    }
}

/// A named bundle of trace series.
///
/// # Examples
///
/// ```
/// use manytest_sim::trace::Trace;
///
/// let mut trace = Trace::new();
/// trace.series_mut("power_w").push(0.0, 45.0);
/// trace.series_mut("power_w").push(0.001, 47.5);
/// assert_eq!(trace.series("power_w").unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    series: BTreeMap<String, TraceSeries>,
    default_bound: Option<usize>,
}

impl Trace {
    /// Creates an empty trace; series created through it are unbounded.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace whose series each store at most
    /// `max_samples` points (decimating on insert once full).
    ///
    /// # Panics
    ///
    /// Panics if `max_samples < 2` (see [`TraceSeries::with_bound`]).
    pub fn bounded(max_samples: usize) -> Self {
        assert!(
            max_samples >= 2,
            "trace bound must be at least 2, got {max_samples}"
        );
        Trace {
            series: BTreeMap::new(),
            default_bound: Some(max_samples),
        }
    }

    /// Returns the series with the given name, creating it if absent
    /// (with this trace's default sample bound, if any).
    // lint:effect(warmup, reason = "first touch of a series name allocates its key and buffer once; steady-state epochs append into bounded storage")
    pub fn series_mut(&mut self, name: &str) -> &mut TraceSeries {
        let bound = self.default_bound;
        self.series.entry(name.to_owned()).or_insert_with(|| {
            bound.map_or_else(TraceSeries::new, TraceSeries::with_bound)
        })
    }

    /// Returns the series with the given name, if recorded.
    pub fn series(&self, name: &str) -> Option<&TraceSeries> {
        self.series.get(name)
    }

    /// Names of all recorded series, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Number of recorded series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True if no series were recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Renders the trace as CSV with one `time` column per series block.
    pub fn to_csv(&self) -> String {
        use fmt::Write as _;
        let total: usize = self.series.values().map(TraceSeries::len).sum();
        let mut out = String::with_capacity(total * 16);
        for (name, series) in &self.series {
            let _ = writeln!(out, "# series: {name}");
            out.push_str("t_seconds,value\n");
            for (t, v) in series.points() {
                let _ = writeln!(out, "{t},{v}");
            }
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Trace({} series", self.series.len())?;
        for (name, s) in &self.series {
            write!(f, "; {name}: {} pts", s.len())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut s = TraceSeries::new();
        s.push(0.0, 1.0);
        s.push(1.0, 2.0);
        assert_eq!(s.points(), &[(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(s.max_value(), Some(2.0));
        assert_eq!(s.mean_value(), Some(1.5));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_push_panics() {
        let mut s = TraceSeries::new();
        s.push(2.0, 1.0);
        s.push(1.0, 1.0);
    }

    #[test]
    fn equal_times_are_allowed() {
        let mut s = TraceSeries::new();
        s.push(1.0, 1.0);
        s.push(1.0, 2.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_series_stats() {
        let s = TraceSeries::new();
        assert!(s.is_empty());
        assert_eq!(s.max_value(), None);
        assert_eq!(s.mean_value(), None);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let mut s = TraceSeries::new();
        for i in 0..100 {
            s.push(i as f64, i as f64);
        }
        let d = s.downsample(5);
        assert_eq!(d.len(), 5);
        assert_eq!(d.points()[0], (0.0, 0.0));
        assert_eq!(d.points()[4], (99.0, 99.0));
    }

    #[test]
    fn downsample_noop_when_small() {
        let mut s = TraceSeries::new();
        s.push(0.0, 1.0);
        assert_eq!(s.downsample(10), s);
        assert_eq!(s.downsample(0), s);
    }

    #[test]
    fn trace_series_registry() {
        let mut t = Trace::new();
        t.series_mut("b").push(0.0, 1.0);
        t.series_mut("a").push(0.0, 2.0);
        assert_eq!(t.len(), 2);
        let names: Vec<&str> = t.names().collect();
        assert_eq!(names, vec!["a", "b"]); // sorted
        assert!(t.series("missing").is_none());
    }

    #[test]
    fn csv_contains_all_series() {
        let mut t = Trace::new();
        t.series_mut("x").push(0.5, 3.5);
        let csv = t.to_csv();
        assert!(csv.contains("# series: x"));
        assert!(csv.contains("0.5,3.5"));
    }

    #[test]
    fn display_is_nonempty() {
        let t = Trace::new();
        assert!(!format!("{t}").is_empty());
    }

    #[test]
    fn downsample_never_duplicates_points_for_small_n() {
        // Sweep small (len, n) pairs: output times must be strictly
        // increasing (a duplicated source index would repeat a time) and
        // both endpoints must survive whenever n >= 2.
        for len in 2..20usize {
            let mut s = TraceSeries::new();
            for i in 0..len {
                s.push(i as f64, i as f64);
            }
            for n in 1..=len {
                let d = s.downsample(n);
                assert!(d.len() <= n, "len {len} n {n}");
                let times: Vec<f64> = d.points().iter().map(|&(t, _)| t).collect();
                for w in times.windows(2) {
                    assert!(w[0] < w[1], "duplicate point at len {len} n {n}");
                }
                assert_eq!(times[0], 0.0, "first endpoint at len {len} n {n}");
                if n >= 2 {
                    assert_eq!(
                        *times.last().unwrap(),
                        (len - 1) as f64,
                        "last endpoint at len {len} n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn downsample_to_one_point_keeps_first() {
        let mut s = TraceSeries::new();
        for i in 0..5 {
            s.push(i as f64, 10.0 * i as f64);
        }
        let d = s.downsample(1);
        assert_eq!(d.points(), &[(0.0, 0.0)]);
    }

    #[test]
    fn bounded_series_caps_length_and_keeps_endpoint_spread() {
        let mut s = TraceSeries::with_bound(8);
        for i in 0..100 {
            s.push(i as f64, i as f64);
        }
        assert!(s.len() <= 8, "len {} exceeds bound", s.len());
        assert!(s.len() >= 4, "decimation should not empty the series");
        assert_eq!(s.points()[0], (0.0, 0.0), "first sample survives");
        // Samples stay uniformly strided over the offered index space.
        let times: Vec<f64> = s.points().iter().map(|&(t, _)| t).collect();
        let stride = times[1] - times[0];
        for w in times.windows(2) {
            assert_eq!(w[1] - w[0], stride, "uniform stride");
        }
        assert_eq!(s.bound(), Some(8));
    }

    #[test]
    fn bounded_series_is_deterministic_in_push_count_only() {
        let run = || {
            let mut s = TraceSeries::with_bound(4);
            for i in 0..33 {
                s.push(i as f64 * 0.5, i as f64);
            }
            s
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn trace_bound_below_two_panics() {
        let _ = TraceSeries::with_bound(1);
    }

    #[test]
    fn decimation_at_exact_power_of_two_boundaries() {
        // Push exactly 2^k samples into a bound-8 series for each k and
        // pin the retained contents: on the boundary the series holds
        // every stride-th offer-index starting at 0, with stride equal to
        // the smallest power of two that fits 2^k offers into 8 slots.
        for k in 3..=10u32 {
            let n = 2u64.pow(k);
            let mut s = TraceSeries::with_bound(8);
            for i in 0..n {
                s.push(i as f64, i as f64);
            }
            let times: Vec<u64> = s.points().iter().map(|&(t, _)| t as u64).collect();
            let stride = if n <= 8 { 1 } else { n / 8 };
            let expected: Vec<u64> = (0..n).step_by(stride as usize).collect();
            assert_eq!(times, expected, "n = {n}");
            assert_eq!(times.len(), 8.min(n as usize), "exactly full at n = {n}");
        }
    }

    #[test]
    fn decimation_one_past_power_of_two_halves_once() {
        // The 2^k-th push (0-indexed offer 2^k) lands exactly when the
        // series is full: it must trigger one halving, leaving bound/2
        // survivors plus the new sample iff it falls on the doubled grid.
        let mut s = TraceSeries::with_bound(8);
        for i in 0..=8u64 {
            s.push(i as f64, i as f64);
        }
        // Offers 0..8 filled the ring; offer 8 halves to {0,2,4,6},
        // doubles the stride to 2, and 8 % 2 == 0 so it is retained.
        let times: Vec<u64> = s.points().iter().map(|&(t, _)| t as u64).collect();
        assert_eq!(times, vec![0, 2, 4, 6, 8]);
        // The next odd offer falls off the coarser grid…
        s.push(9.0, 9.0);
        let times: Vec<u64> = s.points().iter().map(|&(t, _)| t as u64).collect();
        assert_eq!(times, vec![0, 2, 4, 6, 8]);
        // …and the next even offer lands on it.
        s.push(10.0, 10.0);
        let times: Vec<u64> = s.points().iter().map(|&(t, _)| t as u64).collect();
        assert_eq!(times, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn minimum_bound_of_two_survives_power_of_two_sweep() {
        let mut s = TraceSeries::with_bound(2);
        for i in 0..1024u64 {
            s.push(i as f64, i as f64);
        }
        assert!(s.len() <= 2);
        assert_eq!(s.points()[0].0, 0.0, "first sample survives");
    }

    #[test]
    fn bounded_trace_applies_bound_to_new_series() {
        let mut t = Trace::bounded(4);
        for i in 0..50 {
            t.series_mut("p").push(i as f64, 1.0);
        }
        assert!(t.series("p").unwrap().len() <= 4);
        // Unbounded traces stay unbounded.
        let mut u = Trace::new();
        for i in 0..50 {
            u.series_mut("p").push(i as f64, 1.0);
        }
        assert_eq!(u.series("p").unwrap().len(), 50);
    }
}
