//! Lightweight time-series tracing.
//!
//! The bench harness regenerates the paper's figures from traces recorded
//! during a run: power over time, utilisation over time, tests in flight, …
//! A [`Trace`] is a named collection of [`TraceSeries`], each a vector of
//! `(t_seconds, value)` points.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A single named series of `(time, value)` samples. It keeps every
/// sample it is given; [`TraceSeries::downsample`] thins a copy for
/// plotting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSeries {
    points: Vec<(f64, f64)>,
}

impl TraceSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample at time `t` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last recorded sample.
    pub fn push(&mut self, t: f64, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "trace time must be monotone: {t} < {last}");
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
        TraceSeries { points }
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
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the series with the given name, creating it if absent.
    /// Only a missing name allocates: an existing series is found by
    /// `&str` lookup.
    // lint:effect(warmup, reason = "first touch of a series name allocates its key once; later calls find the series by &str lookup")
    pub fn series_mut(&mut self, name: &str) -> &mut TraceSeries {
        if !self.series.contains_key(name) {
            self.series.insert(name.to_owned(), TraceSeries::new());
        }
        self.series.get_mut(name).expect("series inserted above")
    }

    /// Returns the series with the given name, if recorded.
    pub fn series(&self, name: &str) -> Option<&TraceSeries> {
        self.series.get(name)
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
    use crate::obs::{StateRecorder, StateSnapshot};

    #[test]
    fn push_and_read_back() {
        let mut s = TraceSeries::new();
        s.push(0.0, 1.0);
        s.push(1.0, 2.0);
        assert_eq!(s.points(), &[(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(s.max_value(), Some(2.0));
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
        assert!(t.series("a").is_some() && t.series("b").is_some());
        let csv = t.to_csv();
        assert!(csv.find("# series: a") < csv.find("# series: b")); // sorted
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

    // Trace series keep every sample. The stride-doubling decimation that
    // bounded series used to apply lives on in the flight recorder,
    // `StateRecorder`, so the specs below pin it there.

    /// Offers snapshots at times `i * dt`, for each `i` in `offers`, to
    /// `rec`, and returns the times it retains.
    fn offer(rec: &mut StateRecorder, offers: std::ops::Range<u64>, dt: f64) -> Vec<f64> {
        for i in offers {
            rec.push(StateSnapshot {
                t: i as f64 * dt,
                cap_w: 0.0,
                headroom_w: 0.0,
                power_w: 0.0,
                test_power_w: 0.0,
                reservations: 0,
                pending_apps: 0,
                running_apps: 0,
                active_tests: 0,
                cores: Vec::new(),
            });
        }
        let timeline = rec.clone().into_timeline();
        timeline.snapshots().iter().map(|s| s.t).collect()
    }

    #[test]
    fn bounded_series_caps_length_and_keeps_endpoint_spread() {
        let mut rec = StateRecorder::with_capacity(8);
        let times = offer(&mut rec, 0..100, 1.0);
        assert!(times.len() <= 8, "len {} exceeds capacity", times.len());
        assert!(times.len() >= 4, "decimation should not empty the recorder");
        assert_eq!(times[0], 0.0, "first snapshot survives");
        // Snapshots stay uniformly strided over the offered index space.
        let stride = times[1] - times[0];
        for w in times.windows(2) {
            assert_eq!(w[1] - w[0], stride, "uniform stride");
        }
    }

    #[test]
    fn bounded_series_is_deterministic_in_push_count_only() {
        let run = |dt: f64| {
            let mut rec = StateRecorder::with_capacity(4);
            offer(&mut rec, 0..33, dt);
            rec
        };
        assert_eq!(run(0.5), run(0.5));
        // The time scale never enters the thinning: the same offers survive.
        let halves = offer(&mut StateRecorder::with_capacity(4), 0..33, 0.5);
        let units = offer(&mut StateRecorder::with_capacity(4), 0..33, 1.0);
        assert_eq!(halves.iter().map(|t| t * 2.0).collect::<Vec<_>>(), units);
        assert_eq!(units, vec![0.0, 16.0, 32.0]);
    }

    #[test]
    fn decimation_at_exact_power_of_two_boundaries() {
        // Offer exactly 2^k snapshots to a capacity-8 recorder for each k
        // and pin the retained contents: on the boundary the recorder
        // holds every stride-th offer-index starting at 0, with stride
        // equal to the smallest power of two that fits 2^k offers into 8
        // slots.
        for k in 3..=10u32 {
            let n = 2u64.pow(k);
            let mut rec = StateRecorder::with_capacity(8);
            let times: Vec<u64> = offer(&mut rec, 0..n, 1.0)
                .iter()
                .map(|&t| t as u64)
                .collect();
            let stride = if n <= 8 { 1 } else { n / 8 };
            let expected: Vec<u64> = (0..n).step_by(stride as usize).collect();
            assert_eq!(times, expected, "n = {n}");
            assert_eq!(times.len(), 8.min(n as usize), "exactly full at n = {n}");
        }
    }

    #[test]
    fn decimation_one_past_power_of_two_halves_once() {
        // The offer at index 2^k lands exactly when the ring is full: it
        // must trigger one halving, leaving capacity/2 survivors plus the
        // new snapshot iff it falls on the doubled grid.
        let mut rec = StateRecorder::with_capacity(8);
        // Offers 0..8 filled the ring; offer 8 halves it to {0,2,4,6},
        // doubles the stride to 2, and 8 % 2 == 0 so it is retained.
        assert_eq!(offer(&mut rec, 0..9, 1.0), vec![0.0, 2.0, 4.0, 6.0, 8.0]);
        // The next odd offer falls off the coarser grid…
        assert_eq!(offer(&mut rec, 9..10, 1.0), vec![0.0, 2.0, 4.0, 6.0, 8.0]);
        // …and the next even offer lands on it.
        assert_eq!(
            offer(&mut rec, 10..11, 1.0),
            vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        );
    }

    #[test]
    fn minimum_bound_of_two_survives_power_of_two_sweep() {
        let mut rec = StateRecorder::with_capacity(2);
        let times = offer(&mut rec, 0..1024, 1.0);
        assert!(times.len() <= 2);
        assert_eq!(times[0], 0.0, "first snapshot survives");
        let timeline = rec.into_timeline();
        assert_eq!(timeline.last().map(|s| s.t), Some(1023.0), "latest stays exact");
    }
}
