//! Discrete voltage/frequency ladders (DVFS), including near-threshold
//! operating points.
//!
//! The ICCD'14 power manager this paper builds on applies "fine-grained DVFS
//! including near-threshold operation". We derive the frequency achievable
//! at a given voltage from the **alpha-power law** delay model,
//! `f(V) ∝ (V − V_th)^α / V` with `α ≈ 1.3`, and quantise the voltage range
//! `[v_min, v_nominal]` into a ladder of discrete levels.

use crate::tech::TechNode;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a level in a [`VfLadder`] (0 = lowest = near-threshold).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VfLevel(pub u8);

impl VfLevel {
    /// Telemetry index meaning "no operating point: the core is
    /// power-gated". Keeps DVFS-transition events one-dimensional —
    /// a transition is `from: i16, to: i16` where either end may be off.
    pub const GATED: i16 = -1;

    /// This level as a telemetry index (always non-negative; compare
    /// with [`VfLevel::GATED`]).
    pub fn telemetry_index(self) -> i16 {
        i16::from(self.0)
    }
}

/// One voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Supply voltage, volts.
    pub voltage: f64,
    /// Clock frequency, hertz.
    pub frequency: f64,
    /// Position of this point in its ladder.
    pub level: VfLevel,
}

/// A discrete, monotone ladder of operating points for one technology node.
///
/// # Examples
///
/// ```
/// use manytest_power::dvfs::{VfLadder, VfLevel};
/// use manytest_power::tech::TechNode;
///
/// let ladder = VfLadder::for_node(TechNode::N16, 5);
/// assert_eq!(ladder.len(), 5);
/// assert!(ladder.point(VfLevel(0)).frequency < ladder.point(VfLevel(4)).frequency);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VfLadder {
    points: Vec<OperatingPoint>,
}

/// Exponent of the alpha-power-law delay model.
const ALPHA: f64 = 1.3;

fn alpha_power_speed(v: f64, v_th: f64) -> f64 {
    if v <= v_th {
        0.0
    } else {
        (v - v_th).powf(ALPHA) / v
    }
}

impl VfLadder {
    /// Builds a ladder of `levels` points for `node`, spanning
    /// `[v_min, v_nominal]` with alpha-power-law frequencies.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2`.
    pub fn for_node(node: TechNode, levels: usize) -> Self {
        assert!(levels >= 2, "a ladder needs at least two levels");
        let p = node.params();
        let speed_nom = alpha_power_speed(p.v_nominal, p.v_threshold);
        let points = (0..levels)
            .map(|i| {
                let t = i as f64 / (levels - 1) as f64;
                let voltage = p.v_min + t * (p.v_nominal - p.v_min);
                let frequency = p.f_max * alpha_power_speed(voltage, p.v_threshold) / speed_nom;
                OperatingPoint {
                    voltage,
                    frequency,
                    level: VfLevel(i as u8),
                }
            })
            .collect();
        VfLadder { points }
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// A ladder is never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The operating point at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn point(&self, level: VfLevel) -> OperatingPoint {
        self.points[level.0 as usize]
    }

    /// All points, lowest first.
    pub fn iter(&self) -> impl Iterator<Item = OperatingPoint> + '_ {
        self.points.iter().copied()
    }

    /// The highest level whose point's dynamic+static power estimate (per
    /// the closure) does not exceed `cap`, if any.
    pub fn highest_under<P>(&self, cap: f64, power_of: P) -> Option<OperatingPoint>
    where
        P: Fn(OperatingPoint) -> f64,
    {
        self.points
            .iter()
            .rev()
            .copied()
            .find(|&op| power_of(op) <= cap)
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L{} ({:.2} V, {:.0} MHz)",
            self.level.0,
            self.voltage,
            self.frequency / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone_for_all_nodes() {
        for node in TechNode::ALL {
            let ladder = VfLadder::for_node(node, 5);
            let pts: Vec<OperatingPoint> = ladder.iter().collect();
            assert!(pts.windows(2).all(|w| w[1].voltage > w[0].voltage));
            assert!(pts.windows(2).all(|w| w[1].frequency > w[0].frequency));
        }
    }

    #[test]
    fn top_level_is_nominal() {
        for node in TechNode::ALL {
            let p = node.params();
            let ladder = VfLadder::for_node(node, 4);
            let top = ladder.point(VfLevel(3));
            assert!((top.voltage - p.v_nominal).abs() < 1e-12);
            assert!((top.frequency - p.f_max).abs() < 1.0);
        }
    }

    #[test]
    fn bottom_level_is_near_threshold() {
        let node = TechNode::N16;
        let p = node.params();
        let ladder = VfLadder::for_node(node, 5);
        let bottom = ladder.point(VfLevel(0));
        assert!((bottom.voltage - p.v_min).abs() < 1e-12);
        assert!(bottom.frequency > 0.0);
        assert!(bottom.frequency < 0.5 * p.f_max, "near-threshold is slow");
    }

    #[test]
    fn levels_are_indexed_in_order() {
        let ladder = VfLadder::for_node(TechNode::N22, 6);
        for (i, op) in ladder.iter().enumerate() {
            assert_eq!(op.level, VfLevel(i as u8));
            assert_eq!(ladder.point(VfLevel(i as u8)), op);
        }
    }

    #[test]
    fn highest_under_selects_correct_level() {
        let ladder = VfLadder::for_node(TechNode::N16, 5);
        // Power proxy: V² f.
        let power = |op: OperatingPoint| op.voltage * op.voltage * op.frequency;
        let p_mid = power(ladder.point(VfLevel(2)));
        let chosen = ladder.highest_under(p_mid, power).unwrap();
        assert_eq!(chosen.level, VfLevel(2));
        assert!(ladder.highest_under(0.0, power).is_none());
        assert_eq!(
            ladder.highest_under(f64::INFINITY, power).unwrap().level,
            VfLevel(4)
        );
    }

    #[test]
    #[should_panic(expected = "at least two levels")]
    fn tiny_ladder_panics() {
        VfLadder::for_node(TechNode::N16, 1);
    }

    #[test]
    fn display_is_informative() {
        let ladder = VfLadder::for_node(TechNode::N16, 2);
        let s = ladder.point(VfLevel(1)).to_string();
        assert!(s.contains("V"));
        assert!(s.contains("MHz"));
    }

    #[test]
    fn alpha_power_speed_is_zero_below_threshold() {
        assert_eq!(alpha_power_speed(0.2, 0.3), 0.0);
        assert!(alpha_power_speed(0.5, 0.3) > 0.0);
    }
}
