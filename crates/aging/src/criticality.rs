//! The test-criticality metric.
//!
//! Criticality answers "which core most urgently needs a test?". Following
//! the journal description, it combines two pressures:
//!
//! * **stress pressure** — damage accumulated since the last test,
//!   normalised by the damage a core at reference wear accumulates over one
//!   target test period; heavily used (hot) cores build this up faster, so
//!   the scheduler adapts the per-core test frequency to stress, and
//! * **staleness pressure** — wall-clock time since the last test relative
//!   to the target test period, which guarantees even a completely idle
//!   core is eventually re-tested (latent faults are not utilisation
//!   dependent).
//!
//! The resulting scalar is comparable across cores; the scheduler tests the
//! idle core with the highest value, and the test-aware mapper prefers to
//! *not* occupy high-criticality cores so they stay testable.

use crate::stress::CoreStress;
use serde::{Deserialize, Serialize};

/// Tunable weights of the criticality metric.
///
/// # Examples
///
/// ```
/// use manytest_aging::prelude::*;
///
/// let model = CriticalityModel::default();
/// let fresh = CoreStress::default();
/// // A never-tested core grows more critical as time passes.
/// let early = model.criticality(&fresh, 0.1);
/// let late = model.criticality(&fresh, 10.0);
/// assert!(late > early);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CriticalityModel {
    /// Weight of the stress-pressure term.
    pub stress_weight: f64,
    /// Weight of the staleness-pressure term.
    pub time_weight: f64,
    /// Target test period, seconds: a core at reference wear should be
    /// tested about this often.
    pub target_period: f64,
    /// Damage a reference core accumulates per second (normalises the
    /// stress term); matches [`crate::model::AgingModel::base_rate`].
    pub reference_wear_rate: f64,
}

impl CriticalityModel {
    /// Creates a model with explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative, or `target_period` /
    /// `reference_wear_rate` is not strictly positive.
    pub fn new(
        stress_weight: f64,
        time_weight: f64,
        target_period: f64,
        reference_wear_rate: f64,
    ) -> Self {
        assert!(
            stress_weight >= 0.0 && time_weight >= 0.0,
            "weights must be non-negative"
        );
        assert!(target_period > 0.0, "target period must be positive");
        assert!(
            reference_wear_rate > 0.0,
            "reference wear rate must be positive"
        );
        CriticalityModel {
            stress_weight,
            time_weight,
            target_period,
            reference_wear_rate,
        }
    }

    /// The criticality of a core in state `stress` at time `now` (seconds).
    ///
    /// A value of roughly 1 means "one target period worth of pressure has
    /// built up"; the scheduler's queue orders descending on this value.
    pub fn criticality(&self, stress: &CoreStress, now: f64) -> f64 {
        let reference_damage_per_period = self.reference_wear_rate * self.target_period;
        let stress_term = stress.damage_since_test / reference_damage_per_period;
        let time_term = stress.time_since_test(now) / self.target_period;
        self.stress_weight * stress_term + self.time_weight * time_term
    }

    /// An upper bound on how much any core's criticality can grow over
    /// `dt` seconds during which its `damage_since_test` grows by at most
    /// `damage`.
    ///
    /// The staleness term grows by exactly `time_weight·dt/target_period`
    /// on every core, tested or not, and the stress term by at most
    /// `damage`'s share of it. A completed test only lowers criticality,
    /// so it cannot break the bound. This is what lets the test scheduler
    /// predict, for a core below its threshold, the earliest time the
    /// core can reach it.
    pub fn rise_bound(&self, dt: f64, damage: f64) -> f64 {
        let reference_damage_per_period = self.reference_wear_rate * self.target_period;
        self.stress_weight * (damage / reference_damage_per_period)
            + self.time_weight * (dt / self.target_period)
    }

    /// True if the core is overdue: criticality exceeds `threshold`.
    pub fn is_overdue(&self, stress: &CoreStress, now: f64, threshold: f64) -> bool {
        self.criticality(stress, now) >= threshold
    }
}

impl Default for CriticalityModel {
    /// Balanced weights with a 100 ms target test period at unit
    /// reference wear. Together with the scheduler's default criticality
    /// threshold of 0.5 this retests a completely idle core roughly every
    /// 125 ms of simulated time; stressed cores retest sooner. (Real
    /// deployments test every few seconds; the period is compressed ~20×
    /// so half-second simulations cover several test rounds.)
    fn default() -> Self {
        CriticalityModel::new(0.6, 0.4, 0.1, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stressed(damage_since_test: f64, last_test_time: f64) -> CoreStress {
        CoreStress {
            total_damage: damage_since_test,
            damage_since_test,
            utilization: 0.5,
            last_test_time,
        }
    }

    #[test]
    fn criticality_grows_with_stress() {
        let m = CriticalityModel::default();
        let low = stressed(0.1, 0.0);
        let high = stressed(1.0, 0.0);
        assert!(m.criticality(&high, 1.0) > m.criticality(&low, 1.0));
    }

    #[test]
    fn criticality_grows_with_staleness() {
        let m = CriticalityModel::default();
        let s = stressed(0.5, 0.0);
        assert!(m.criticality(&s, 2.0) > m.criticality(&s, 1.0));
    }

    #[test]
    fn fresh_test_resets_pressure() {
        let m = CriticalityModel::default();
        let worn = stressed(2.0, 0.0);
        let just_tested = stressed(0.0, 1.0);
        assert!(m.criticality(&worn, 1.0) > m.criticality(&just_tested, 1.0));
        assert!(m.criticality(&just_tested, 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_core_is_eventually_overdue() {
        let m = CriticalityModel::default();
        // Zero stress, tested at t=0; only staleness drives criticality.
        let idle = stressed(0.0, 0.0);
        assert!(!m.is_overdue(&idle, 0.01, 1.0));
        assert!(m.is_overdue(&idle, 10.0, 1.0));
    }

    #[test]
    fn one_period_of_reference_wear_scores_about_one() {
        let m = CriticalityModel::default();
        // damage = reference rate × period, tested exactly one period ago.
        let s = stressed(m.reference_wear_rate * m.target_period, 0.0);
        let c = m.criticality(&s, m.target_period);
        assert!((c - (m.stress_weight + m.time_weight)).abs() < 1e-12);
    }

    #[test]
    fn weights_steer_the_metric() {
        let stress_only = CriticalityModel::new(1.0, 0.0, 1.0, 1.0);
        let time_only = CriticalityModel::new(0.0, 1.0, 1.0, 1.0);
        let s = stressed(5.0, 0.0);
        assert_eq!(stress_only.criticality(&s, 100.0), 5.0);
        assert_eq!(time_only.criticality(&s, 100.0), 100.0);
    }

    #[test]
    fn never_tested_core_counts_from_origin() {
        let m = CriticalityModel::new(0.0, 1.0, 1.0, 1.0);
        let never = CoreStress::default();
        assert_eq!(m.criticality(&never, 7.0), 7.0);
    }

    #[test]
    fn rise_bound_covers_staleness_and_wear() {
        let m = CriticalityModel::default();
        let dt = 0.001;
        let damage = 0.002;
        let mut s = stressed(0.3, 0.05);
        for step in 1..=50 {
            let now = 0.1 + step as f64 * dt;
            let before = m.criticality(&s, now - dt);
            s.damage_since_test += damage * (step % 3) as f64 / 2.0;
            let rise = m.criticality(&s, now) - before;
            assert!(
                rise <= m.rise_bound(dt, damage) * (1.0 + 1e-9),
                "step {step}"
            );
        }
        // A never-tested idle core rises by exactly the staleness slope.
        let never = CoreStress::default();
        let rise = m.criticality(&never, 0.5 + dt) - m.criticality(&never, 0.5);
        assert!((rise - m.rise_bound(dt, 0.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "target period")]
    fn zero_period_panics() {
        CriticalityModel::new(1.0, 1.0, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        CriticalityModel::new(-0.1, 1.0, 1.0, 1.0);
    }
}
