//! The per-core power model.
//!
//! `P_core = α · C_eff · V² · f  +  V · I_leak(V)` — the standard CMOS
//! decomposition into switching (dynamic) and leakage (static) power.
//! Activity `α ∈ [0, 1]` captures what the core is doing: idle-clocked cores
//! sit near `α ≈ 0.05`, typical workload around `α ≈ 0.4–0.6`, and SBST
//! routines — which are built to toggle as much logic as possible — run
//! hotter, `α ≈ 0.7–0.9`. Power-gated (dark) cores consume nothing.

use crate::dvfs::OperatingPoint;
use crate::tech::{TechNode, TechParams};
use serde::{Deserialize, Serialize};

/// Per-core power calculator for one technology node.
///
/// # Examples
///
/// ```
/// use manytest_power::prelude::*;
///
/// let model = PowerModel::for_node(TechNode::N16);
/// let ladder = VfLadder::for_node(TechNode::N16, 5);
/// let nominal = ladder.point(VfLevel(4));
/// let p_busy = model.core_power(nominal, 0.5);
/// let p_idle = model.core_power(nominal, PowerModel::IDLE_ACTIVITY);
/// assert!(p_idle < p_busy);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    params: TechParams,
}

impl PowerModel {
    /// Activity factor of an idle but clocked core.
    pub const IDLE_ACTIVITY: f64 = 0.05;
    /// Typical activity factor of application workload.
    pub const WORKLOAD_ACTIVITY: f64 = 0.5;
    /// Activity factor of an SBST test routine (high toggle rate by design).
    pub const TEST_ACTIVITY: f64 = 0.8;

    /// Creates the model for a technology node.
    pub fn for_node(node: TechNode) -> Self {
        PowerModel {
            params: node.params(),
        }
    }

    /// Dynamic (switching) power at `op` with activity `activity`, watts.
    ///
    /// # Panics
    ///
    /// Panics if `activity` is outside `[0, 1]`.
    #[inline]
    pub fn dynamic_power(&self, op: OperatingPoint, activity: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&activity),
            "activity must be in [0,1], got {activity}"
        );
        activity * self.params.c_eff * op.voltage * op.voltage * op.frequency
    }

    /// Leakage (static) power of a powered-on core at `op`, watts.
    ///
    /// Leakage current scales with voltage (a linearised DIBL term):
    /// `I_leak(V) = I_leak,nom · (V / V_nom)`.
    #[inline]
    pub fn leakage_power(&self, op: OperatingPoint) -> f64 {
        let i = self.params.i_leak * (op.voltage / self.params.v_nominal);
        op.voltage * i
    }

    /// Total power of a powered-on core at `op` with activity `activity`.
    #[inline]
    pub fn core_power(&self, op: OperatingPoint, activity: f64) -> f64 {
        self.dynamic_power(op, activity) + self.leakage_power(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::{VfLadder, VfLevel};

    fn model_and_ladder() -> (PowerModel, VfLadder) {
        (
            PowerModel::for_node(TechNode::N16),
            VfLadder::for_node(TechNode::N16, 5),
        )
    }

    #[test]
    fn power_monotone_in_activity() {
        let (m, l) = model_and_ladder();
        let op = l.point(VfLevel(4));
        let mut last = -1.0;
        for a in [0.0, 0.2, 0.5, 0.8, 1.0] {
            let p = m.core_power(op, a);
            assert!(p > last);
            last = p;
        }
    }

    #[test]
    fn power_monotone_in_vf_level() {
        let (m, l) = model_and_ladder();
        let powers: Vec<f64> = l.iter().map(|op| m.core_power(op, 0.5)).collect();
        assert!(powers.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn test_routines_burn_more_than_workload() {
        let (m, l) = model_and_ladder();
        let op = l.point(VfLevel(4));
        let test = m.core_power(op, PowerModel::TEST_ACTIVITY);
        let idle = m.core_power(op, PowerModel::IDLE_ACTIVITY);
        assert!(test > m.core_power(op, PowerModel::WORKLOAD_ACTIVITY));
        assert!(m.core_power(op, PowerModel::WORKLOAD_ACTIVITY) > idle);
    }

    #[test]
    fn zero_activity_is_pure_leakage() {
        let (m, l) = model_and_ladder();
        let op = l.point(VfLevel(0));
        assert_eq!(m.core_power(op, 0.0), m.leakage_power(op));
        assert!(m.leakage_power(op) > 0.0);
    }

    #[test]
    fn leakage_shrinks_with_voltage() {
        let (m, l) = model_and_ladder();
        assert!(m.leakage_power(l.point(VfLevel(0))) < m.leakage_power(l.point(VfLevel(4))));
    }

    #[test]
    #[should_panic(expected = "activity must be in [0,1]")]
    fn invalid_activity_panics() {
        let (m, l) = model_and_ladder();
        m.core_power(l.point(VfLevel(4)), 1.5);
    }

    #[test]
    fn nominal_power_matches_tech_peak() {
        // Consistency between PowerModel and TechNode::peak_power_all_cores.
        for node in TechNode::ALL {
            let m = PowerModel::for_node(node);
            let l = VfLadder::for_node(node, 5);
            let per_core = m.core_power(l.point(VfLevel(4)), 1.0);
            let expected = node.peak_power_all_cores() / node.core_count() as f64;
            assert!(
                (per_core - expected).abs() < 1e-9,
                "{node}: {per_core} vs {expected}"
            );
        }
    }

    #[test]
    fn near_threshold_saves_substantial_power() {
        let (m, l) = model_and_ladder();
        let p_min = m.core_power(l.point(VfLevel(0)), 0.5);
        let p_max = m.core_power(l.point(VfLevel(4)), 0.5);
        assert!(
            p_min < 0.3 * p_max,
            "near-threshold should cut power >3x: {p_min} vs {p_max}"
        );
    }
}
