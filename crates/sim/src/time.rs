//! Strongly typed simulation time.
//!
//! All simulation time is kept in integer **nanoseconds** so that event
//! ordering is exact and runs are reproducible across platforms; floating
//! point only appears at the edges (seconds for reporting, rates for models).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in simulated time, in nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use manytest_sim::time::{Duration, SimTime};
///
/// let t = SimTime::from_ns(2_000_000) + Duration::from_us(500);
/// assert_eq!(t, SimTime::from_ns(2_500_000));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use manytest_sim::time::Duration;
///
/// let d = Duration::from_us(3) * 4;
/// assert_eq!(d.as_ns(), 12_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Duration(u64);

/// Index of a fixed-size control epoch.
///
/// The power manager, runtime mapper and test scheduler all run once per
/// epoch; [`Epoch`] is the discrete clock of those control loops.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Epoch(pub u64);

impl SimTime {
    /// The simulation origin (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; used as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from floating point seconds, rounding to the
    /// nearest nanosecond like [`Duration::from_secs_f64`].
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_ns(secs))
    }

    /// This time expressed in (floating point) seconds; for reporting only.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Duration {
    /// The empty duration.
    pub const ZERO: Duration = Duration(0);
    /// The maximum representable duration; used as an "infinite" sentinel.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns)
    }

    /// Creates a duration from microseconds, saturating at [`Duration::MAX`].
    pub const fn from_us(us: u64) -> Self {
        Duration(us.saturating_mul(1_000))
    }

    /// Creates a duration from milliseconds, saturating at [`Duration::MAX`].
    pub const fn from_ms(ms: u64) -> Self {
        Duration(ms.saturating_mul(1_000_000))
    }

    /// Creates a duration from floating point seconds, rounding to the
    /// nearest nanosecond and saturating at the representable range.
    pub fn from_secs_f64(secs: f64) -> Self {
        Duration(secs_to_ns(secs))
    }

    /// Raw nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This duration expressed in (floating point) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// Seconds to the nearest nanosecond (ties away from zero). The `as`
/// cast saturates: negatives, `-0.0` and NaN give 0, and products at or
/// above 2^64 give `u64::MAX`.
fn secs_to_ns(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

impl Epoch {
    /// First epoch.
    pub const ZERO: Epoch = Epoch(0);

    /// Start time of this epoch for epochs of length `epoch_len`.
    pub fn start(self, epoch_len: Duration) -> SimTime {
        SimTime(self.0 * epoch_len.0)
    }

    /// End time (exclusive) of this epoch for epochs of length `epoch_len`.
    pub fn end(self, epoch_len: Duration) -> SimTime {
        SimTime((self.0 + 1) * epoch_len.0)
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch#{}", self.0)
    }
}

impl From<Duration> for SimTime {
    fn from(d: Duration) -> SimTime {
        SimTime(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Duration::from_us(2).as_ns(), 2_000);
        assert_eq!(Duration::from_ms(2).as_ns(), 2_000_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t0 = SimTime::from_ns(10_000_000);
        let d = Duration::from_us(250);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1 - d, t0);
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_ns(1_000_000);
        let late = SimTime::from_ns(5_000_000);
        assert_eq!(early - late, Duration::ZERO);
        assert_eq!(Duration::from_ns(3) - Duration::from_ns(10), Duration::ZERO);
    }

    #[test]
    fn epoch_boundaries() {
        let len = Duration::from_ms(1);
        assert_eq!(Epoch::ZERO.start(len), SimTime::ZERO);
        assert_eq!(Epoch(3).start(len), SimTime::from_ns(3_000_000));
        assert_eq!(Epoch(3).end(len), SimTime::from_ns(4_000_000));
    }

    #[test]
    fn unit_constructors_saturate() {
        assert_eq!(Duration::from_us(u64::MAX), Duration::MAX);
        assert_eq!(Duration::from_ms(u64::MAX / 1_000_000 + 1), Duration::MAX);
        assert_eq!(
            Duration::from_us(u64::MAX / 1_000).as_ns(),
            u64::MAX / 1_000 * 1_000
        );
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(1e-9), Duration::from_ns(1));
        assert_eq!(Duration::from_secs_f64(0.5).as_ns(), 500_000_000);
        assert_eq!(Duration::from_secs_f64(f64::MAX), Duration::MAX);
    }

    #[test]
    fn sim_time_from_secs_f64_matches_the_inline_rounding() {
        let inline = |t: f64| SimTime::from_ns((t * 1e9).round() as u64);
        let mut edges = vec![
            -1.0,
            -4e-10,
            -0.0,
            0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            18_446_744_073.709_553,
            18_446_744_073.709_55,
            f64::MIN_POSITIVE,
        ];
        // Near half-nanosecond ties, and their float neighbours.
        for ns in [0u64, 1, 2, 3, 1_000_000, 123_456_789, 9_007_199_254] {
            let tie = (ns as f64 + 0.5) / 1e9;
            let below = f64::from_bits(tie.to_bits() - 1);
            edges.extend([tie, below, f64::from_bits(tie.to_bits() + 1)]);
        }
        for t in edges {
            let got = SimTime::from_secs_f64(t);
            assert_eq!(got, inline(t), "t = {t:e}");
            assert_eq!(got.0, Duration::from_secs_f64(t).as_ns(), "t = {t:e}");
        }
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::MAX), SimTime::MAX);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::from_ns(1_000_000)).is_empty());
        assert!(!format!("{}", Duration::from_ms(1)).is_empty());
        assert!(!format!("{}", Epoch(7)).is_empty());
    }

    #[test]
    fn saturating_add_at_max() {
        assert_eq!(SimTime::MAX + Duration::from_ns(1), SimTime::MAX);
        assert_eq!(Duration::MAX + Duration::from_ns(1), Duration::MAX);
    }
}
