//! Per-category power/energy accounting.
//!
//! The evaluation needs to answer questions like "what fraction of consumed
//! power went to testing?" (the TC'16 abstract says ≈ 2 %). [`PowerMeter`]
//! accumulates energy per [`PowerCategory`] over epochs and exposes both the
//! per-epoch snapshot (for traces) and the run-long totals.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What a joule was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerCategory {
    /// Application task execution.
    Workload,
    /// SBST test routine execution.
    Test,
    /// Idle-but-clocked cores.
    Idle,
    /// NoC transport (links + routers).
    Noc,
}

impl PowerCategory {
    /// All categories, in reporting order.
    pub const ALL: [PowerCategory; 4] = [
        PowerCategory::Workload,
        PowerCategory::Test,
        PowerCategory::Idle,
        PowerCategory::Noc,
    ];

    #[inline]
    fn index(self) -> usize {
        match self {
            PowerCategory::Workload => 0,
            PowerCategory::Test => 1,
            PowerCategory::Idle => 2,
            PowerCategory::Noc => 3,
        }
    }
}

impl fmt::Display for PowerCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PowerCategory::Workload => "workload",
            PowerCategory::Test => "test",
            PowerCategory::Idle => "idle",
            PowerCategory::Noc => "noc",
        };
        f.write_str(s)
    }
}

/// Accumulates energy per category; epoch-scoped and run-scoped.
///
/// # Examples
///
/// ```
/// use manytest_power::meter::{PowerCategory, PowerMeter};
///
/// let mut meter = PowerMeter::new();
/// meter.add(PowerCategory::Workload, 40.0, 0.001); // 40 W for 1 ms
/// meter.add(PowerCategory::Test, 2.0, 0.001);
/// assert!((meter.epoch_power(0.001) - 42.0).abs() < 1e-9);
/// let share = meter.total_share(PowerCategory::Test);
/// assert!((share - 2.0 / 42.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerMeter {
    epoch_joules: [f64; 4],
    total_joules: [f64; 4],
    total_seconds: f64,
    peak_epoch_power: f64,
}

impl PowerMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `watts` drawn for `seconds` to `category` in the current
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if `watts` or `seconds` is negative.
    #[inline]
    pub fn add(&mut self, category: PowerCategory, watts: f64, seconds: f64) {
        assert!(watts >= 0.0 && seconds >= 0.0, "negative power or time");
        let joules = watts * seconds;
        self.epoch_joules[category.index()] += joules;
        self.total_joules[category.index()] += joules;
    }

    /// Charges an instantaneous energy amount (e.g. one NoC message) to
    /// `category` in the current epoch.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative.
    #[inline]
    pub fn add_energy(&mut self, category: PowerCategory, joules: f64) {
        assert!(joules >= 0.0, "negative energy");
        self.epoch_joules[category.index()] += joules;
        self.total_joules[category.index()] += joules;
    }

    /// Mean power over the current epoch of length `epoch_seconds`, watts.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_seconds` is not positive.
    pub fn epoch_power(&self, epoch_seconds: f64) -> f64 {
        assert!(epoch_seconds > 0.0, "epoch length must be positive");
        self.epoch_joules.iter().sum::<f64>() / epoch_seconds
    }

    /// Mean power of one category over the current epoch, watts.
    pub fn epoch_category_power(&self, category: PowerCategory, epoch_seconds: f64) -> f64 {
        assert!(epoch_seconds > 0.0, "epoch length must be positive");
        self.epoch_joules[category.index()] / epoch_seconds
    }

    /// Ends the epoch: folds the epoch bucket into the run totals, records
    /// the epoch's mean power for the peak statistic and clears the epoch
    /// bucket.
    pub fn roll_epoch(&mut self, epoch_seconds: f64) {
        let p = self.epoch_power(epoch_seconds);
        self.peak_epoch_power = self.peak_epoch_power.max(p);
        self.total_seconds += epoch_seconds;
        self.epoch_joules = [0.0; 4];
    }

    /// Total energy over all categories, joules.
    pub fn total_energy_all(&self) -> f64 {
        self.total_joules.iter().sum()
    }

    /// Fraction of all consumed energy that went to `category` (0 if the
    /// meter is empty).
    pub fn total_share(&self, category: PowerCategory) -> f64 {
        let all = self.total_energy_all();
        if all > 0.0 {
            self.total_joules[category.index()] / all
        } else {
            0.0
        }
    }

    /// Run-long mean power, watts (0 before the first `roll_epoch`).
    pub fn mean_power(&self) -> f64 {
        if self.total_seconds > 0.0 {
            self.total_energy_all() / self.total_seconds
        } else {
            0.0
        }
    }

    /// Highest epoch-mean power seen so far, watts.
    pub fn peak_epoch_power(&self) -> f64 {
        self.peak_epoch_power
    }

    /// Total metered time, seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_energy() {
        let mut m = PowerMeter::new();
        m.add(PowerCategory::Workload, 10.0, 2.0);
        m.add(PowerCategory::Workload, 5.0, 2.0);
        assert_eq!(m.epoch_category_power(PowerCategory::Workload, 1.0), 30.0);
        assert_eq!(m.total_energy_all(), 30.0);
    }

    #[test]
    fn categories_are_independent() {
        let mut m = PowerMeter::new();
        m.add(PowerCategory::Test, 1.0, 1.0);
        m.add(PowerCategory::Noc, 2.0, 1.0);
        assert_eq!(m.epoch_category_power(PowerCategory::Test, 1.0), 1.0);
        assert_eq!(m.epoch_category_power(PowerCategory::Noc, 1.0), 2.0);
        assert_eq!(m.epoch_category_power(PowerCategory::Idle, 1.0), 0.0);
    }

    #[test]
    fn roll_epoch_clears_epoch_but_keeps_totals() {
        let mut m = PowerMeter::new();
        m.add(PowerCategory::Workload, 50.0, 0.001);
        m.roll_epoch(0.001);
        assert_eq!(m.epoch_category_power(PowerCategory::Workload, 0.001), 0.0);
        assert!((m.total_energy_all() - 0.05).abs() < 1e-12);
        assert!((m.mean_power() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn peak_tracks_hottest_epoch() {
        let mut m = PowerMeter::new();
        m.add(PowerCategory::Workload, 30.0, 0.001);
        m.roll_epoch(0.001);
        m.add(PowerCategory::Workload, 70.0, 0.001);
        m.roll_epoch(0.001);
        m.add(PowerCategory::Workload, 10.0, 0.001);
        m.roll_epoch(0.001);
        assert!((m.peak_epoch_power() - 70.0).abs() < 1e-9);
        assert!((m.mean_power() - (30.0 + 70.0 + 10.0) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn shares_sum_to_one() {
        let mut m = PowerMeter::new();
        m.add(PowerCategory::Workload, 40.0, 1.0);
        m.add(PowerCategory::Test, 2.0, 1.0);
        m.add(PowerCategory::Idle, 5.0, 1.0);
        m.add(PowerCategory::Noc, 3.0, 1.0);
        let sum: f64 = PowerCategory::ALL
            .iter()
            .map(|&c| m.total_share(c))
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_meter_is_zero_everywhere() {
        let m = PowerMeter::new();
        assert_eq!(m.mean_power(), 0.0);
        assert_eq!(m.total_share(PowerCategory::Test), 0.0);
        assert_eq!(m.peak_epoch_power(), 0.0);
        assert_eq!(m.total_seconds(), 0.0);
    }

    #[test]
    #[should_panic(expected = "negative power or time")]
    fn negative_add_panics() {
        PowerMeter::new().add(PowerCategory::Idle, -1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn zero_epoch_power_panics() {
        PowerMeter::new().epoch_power(0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(PowerCategory::Test.to_string(), "test");
        assert_eq!(PowerCategory::Workload.to_string(), "workload");
    }
}
