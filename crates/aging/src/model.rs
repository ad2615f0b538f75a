//! Arrhenius-style aging model with a steady-state thermal proxy.
//!
//! Full thermal simulation (HotSpot-style RC networks) is out of scope and
//! unnecessary for the scheduling decisions under study: what matters is
//! that sustained high power makes a core *relatively* more worn than its
//! neighbours. We therefore use the standard steady-state proxy
//! `T = T_ambient + R_th · P` and the Arrhenius acceleration factor
//! `AF(T) = exp(Ea/k · (1/T_ref − 1/T))` that underlies NBTI and
//! electromigration MTTF models.

use serde::{Deserialize, Serialize};

/// Boltzmann constant in eV/K.
const BOLTZMANN_EV: f64 = 8.617e-5;

/// Maps per-core power to a wear rate (damage units per second).
///
/// # Examples
///
/// ```
/// use manytest_aging::model::AgingModel;
///
/// let m = AgingModel::default();
/// let cool = m.wear_rate(0.1);
/// let hot = m.wear_rate(1.0);
/// assert!(hot > cool);
/// // At reference conditions the acceleration factor is exactly 1.
/// assert!((m.acceleration_at(m.t_reference) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgingModel {
    /// Ambient (zero-power) die temperature, kelvin.
    pub t_ambient: f64,
    /// Thermal resistance of one core tile, kelvin per watt.
    pub r_thermal: f64,
    /// Activation energy, eV (NBTI/EM-typical ≈ 0.5–0.7 eV).
    pub activation_energy: f64,
    /// Reference temperature at which the acceleration factor is 1, kelvin.
    pub t_reference: f64,
    /// Base wear rate at the reference temperature, damage/second.
    pub base_rate: f64,
}

impl AgingModel {
    /// A model tuned for small manycore tiles: 45 °C ambient, 30 K/W tile
    /// thermal resistance, 0.6 eV activation energy, reference at 60 °C.
    pub(crate) fn new() -> Self {
        AgingModel {
            t_ambient: 318.15,     // 45 °C
            r_thermal: 30.0,       // K/W per tile
            activation_energy: 0.6,
            t_reference: 333.15,   // 60 °C
            base_rate: 1.0,
        }
    }

    /// Steady-state temperature of a core drawing `power` watts, kelvin.
    ///
    /// # Panics
    ///
    /// Panics if `power` is negative.
    pub fn temperature(&self, power: f64) -> f64 {
        assert!(power >= 0.0, "power must be non-negative");
        self.t_ambient + self.r_thermal * power
    }

    /// Arrhenius acceleration factor at absolute temperature `t` kelvin.
    pub fn acceleration_at(&self, t: f64) -> f64 {
        self.arrhenius().at(t)
    }

    /// The acceleration factor's temperature-independent constants,
    /// hoisted so a pass over many cores divides by them only once.
    pub(crate) fn arrhenius(&self) -> Arrhenius {
        Arrhenius {
            ea_over_k: self.activation_energy / BOLTZMANN_EV,
            inv_t_reference: 1.0 / self.t_reference,
        }
    }

    /// Wear rate (damage/second) of a core drawing `power` watts.
    pub fn wear_rate(&self, power: f64) -> f64 {
        self.base_rate * self.acceleration_at(self.temperature(power))
    }

    /// Damage accumulated while drawing `power` watts for `seconds`.
    pub fn damage(&self, power: f64, seconds: f64) -> f64 {
        assert!(seconds >= 0.0, "time must be non-negative");
        self.wear_rate(power) * seconds
    }

    /// [`Self::damage`] with the Arrhenius constants hoisted out of a
    /// pass over many cores: the same operations and checks in the same
    /// order, so the same bits and the same panics.
    pub(crate) fn damage_with(&self, arrhenius: Arrhenius, power: f64, seconds: f64) -> f64 {
        assert!(seconds >= 0.0, "time must be non-negative");
        self.base_rate * arrhenius.at(self.temperature(power)) * seconds
    }
}

impl Default for AgingModel {
    fn default() -> Self {
        Self::new()
    }
}

/// `AF(T) = exp(Ea/k · (1/T_ref − 1/T))` with `Ea/k` and `1/T_ref`
/// precomputed: the one implementation of the acceleration factor.
#[derive(Clone, Copy)]
pub(crate) struct Arrhenius {
    ea_over_k: f64,
    inv_t_reference: f64,
}

impl Arrhenius {
    /// Acceleration factor at absolute temperature `t` kelvin.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not positive (NaN included).
    pub(crate) fn at(self, t: f64) -> f64 {
        assert!(t > 0.0, "absolute temperature must be positive");
        (self.ea_over_k * (self.inv_t_reference - 1.0 / t)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_is_affine_in_power() {
        let m = AgingModel::default();
        let t0 = m.temperature(0.0);
        let t1 = m.temperature(1.0);
        let t2 = m.temperature(2.0);
        assert_eq!(t0, m.t_ambient);
        assert!((t2 - t1 - (t1 - t0)).abs() < 1e-9);
    }

    #[test]
    fn acceleration_is_monotone_in_temperature() {
        let m = AgingModel::default();
        let mut last = 0.0;
        for t in [300.0, 320.0, 340.0, 360.0, 380.0] {
            let af = m.acceleration_at(t);
            assert!(af > last);
            last = af;
        }
    }

    #[test]
    fn acceleration_is_one_at_reference() {
        let m = AgingModel::default();
        assert!((m.acceleration_at(m.t_reference) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wear_rate_monotone_in_power() {
        let m = AgingModel::default();
        let rates: Vec<f64> = [0.0, 0.5, 1.0, 2.0].iter().map(|&p| m.wear_rate(p)).collect();
        assert!(rates.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn hot_core_ages_much_faster() {
        let m = AgingModel::default();
        // 2 W tile sits 60 K above ambient: acceleration should be large.
        let ratio = m.wear_rate(2.0) / m.wear_rate(0.0);
        assert!(ratio > 5.0, "expected strong thermal acceleration, got {ratio}");
    }

    #[test]
    fn damage_scales_linearly_with_time() {
        let m = AgingModel::default();
        let d1 = m.damage(1.0, 10.0);
        let d2 = m.damage(1.0, 20.0);
        assert!((d2 - 2.0 * d1).abs() < 1e-9);
        assert_eq!(m.damage(1.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_panics() {
        AgingModel::default().temperature(-0.1);
    }

    #[test]
    fn default_equals_new() {
        assert_eq!(AgingModel::default(), AgingModel::new());
    }
}
