//! Dynamic power-budget governors.
//!
//! The ICCD'14 companion paper contributes a **PID-controller-based dynamic
//! power manager**: instead of budgeting against the raw TDP (which wastes
//! headroom whenever the power model over-estimates, and overshoots whenever
//! it under-estimates), the controller observes the *measured* chip power
//! every epoch and nudges the admission cap so measured power converges to
//! the TDP from below. The DATE'15 paper reuses this governor; its leftover
//! headroom is exactly what the test scheduler spends.
//!
//! [`NaiveTdpPolicy`] is the baseline the ICCD'14 paper compares against: a
//! bang-bang policy that halves the cap on violation and restores it only
//! when far below the target.

use serde::{Deserialize, Serialize};

/// A power governor maps (target, measurement) to the next epoch's cap.
pub trait PowerGovernor {
    /// Observes the epoch's measured power and returns the cap the
    /// admission ledger should use next epoch, in watts.
    fn next_cap(&mut self, target: f64, measured: f64) -> f64;

    /// Resets internal state (integrator, history).
    fn reset(&mut self);
}

/// PID controller over the admission cap.
///
/// Controller form (positional, clamped integrator):
///
/// ```text
/// e[k]   = target − measured[k]
/// cap[k] = target + Kp·e[k] + Ki·Σe + Kd·(e[k] − e[k−1])
/// ```
///
/// clamped to `[cap_min, cap_max]`. With its fixed gains the cap rises
/// when the chip under-uses the TDP (letting more work/tests in) and dips
/// below the TDP after an overshoot, draining the excess.
///
/// # Examples
///
/// ```
/// use manytest_power::pid::{PidController, PowerGovernor};
///
/// let mut pid = PidController::default();
/// // Chip measured well below the 80 W target: cap opens above target.
/// let cap = pid.next_cap(80.0, 60.0);
/// assert!(cap > 80.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PidController {
    integral: f64,
    prev_error: Option<f64>,
}

impl PidController {
    /// Proportional, integral and derivative gains, the tuning used
    /// throughout the evaluation.
    const KP: f64 = 0.5;
    const KI: f64 = 0.08;
    const KD: f64 = 0.1;
    /// Anti-windup clamp on the integral term, watt-epochs.
    const INTEGRAL_LIMIT: f64 = 50.0;
    /// The cap stays within `floor·target ..= ceil·target`.
    const CAP_FLOOR_FRACTION: f64 = 0.2;
    const CAP_CEIL_FRACTION: f64 = 1.25;
}

impl PowerGovernor for PidController {
    fn next_cap(&mut self, target: f64, measured: f64) -> f64 {
        let error = target - measured;
        self.integral = (self.integral + error).clamp(-Self::INTEGRAL_LIMIT, Self::INTEGRAL_LIMIT);
        let derivative = self.prev_error.map_or(0.0, |prev| error - prev);
        self.prev_error = Some(error);
        let cap = target + Self::KP * error + Self::KI * self.integral + Self::KD * derivative;
        cap.clamp(Self::CAP_FLOOR_FRACTION * target, Self::CAP_CEIL_FRACTION * target)
    }

    fn reset(&mut self) {
        self.integral = 0.0;
        self.prev_error = None;
    }
}

/// The naive baseline: run at the full TDP cap until a violation, then slam
/// the cap down; restore only after the chip cools far below the target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NaiveTdpPolicy {
    throttled: bool,
    throttle_fraction: f64,
    restore_fraction: f64,
}

impl NaiveTdpPolicy {
    /// Creates the baseline with the conventional parameters: throttle the
    /// cap to 50 % of the TDP on violation, restore once measured power is
    /// below 70 % of the TDP.
    pub fn new() -> Self {
        NaiveTdpPolicy {
            throttled: false,
            throttle_fraction: 0.5,
            restore_fraction: 0.7,
        }
    }
}

impl Default for NaiveTdpPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl PowerGovernor for NaiveTdpPolicy {
    fn next_cap(&mut self, target: f64, measured: f64) -> f64 {
        if measured > target {
            self.throttled = true;
        } else if measured < self.restore_fraction * target {
            self.throttled = false;
        }
        if self.throttled {
            self.throttle_fraction * target
        } else {
            target
        }
    }

    fn reset(&mut self) {
        self.throttled = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A crude one-pole plant: chip power follows the cap with demand
    /// saturation and a little model error.
    fn simulate<G: PowerGovernor>(gov: &mut G, target: f64, demand: f64, epochs: usize) -> Vec<f64> {
        let mut measured = 0.0;
        let mut trace = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let cap = gov.next_cap(target, measured);
            // The chip consumes whatever the workload demands, limited by
            // the cap, with 5% model error (consumes a bit more than
            // admitted).
            measured = demand.min(cap) * 1.05;
            trace.push(measured);
        }
        trace
    }

    #[test]
    fn pid_converges_near_target_under_high_demand() {
        let mut pid = PidController::default();
        let trace = simulate(&mut pid, 80.0, 200.0, 200);
        let tail = &trace[150..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (mean - 80.0).abs() < 4.0,
            "PID should settle near target, got mean {mean}"
        );
    }

    #[test]
    fn naive_oscillates_and_underutilizes() {
        let mut naive = NaiveTdpPolicy::new();
        let trace = simulate(&mut naive, 80.0, 200.0, 200);
        let tail = &trace[150..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        let pid_mean = {
            let mut pid = PidController::default();
            let t = simulate(&mut pid, 80.0, 200.0, 200);
            t[150..].iter().sum::<f64>() / 50.0
        };
        assert!(
            pid_mean > mean,
            "PID should deliver more power (throughput) than naive: {pid_mean} vs {mean}"
        );
    }

    #[test]
    fn pid_opens_cap_when_underutilized() {
        let mut pid = PidController::default();
        let cap = pid.next_cap(80.0, 20.0);
        assert!(cap > 80.0);
    }

    #[test]
    fn pid_tightens_cap_after_overshoot() {
        let mut pid = PidController::default();
        let cap = pid.next_cap(80.0, 100.0);
        assert!(cap < 80.0);
    }

    #[test]
    fn pid_cap_respects_bounds() {
        // The first two measurements drive the raw cap above the
        // ceiling, the last two below the floor.
        let mut pid = PidController::default();
        let caps = [0.0, 40.0, 200.0, 500.0].map(|measured| pid.next_cap(80.0, measured));
        assert_eq!(caps, [100.0, 100.0, 16.0, 16.0]);
    }

    #[test]
    fn integral_windup_is_clamped() {
        let mut pid = PidController::default();
        // Persistent large error would wind the integral up to 8000
        // watt-epochs and pin the cap at its ceiling once the chip
        // reaches the target; with the clamp the integral term is
        // 0.08 × 50 W.
        for _ in 0..100 {
            pid.next_cap(80.0, 0.0);
        }
        pid.next_cap(80.0, 80.0);
        let cap = pid.next_cap(80.0, 80.0);
        assert!((cap - 84.0).abs() < 1e-9, "cap {cap}");
    }

    #[test]
    fn reset_clears_history() {
        let mut pid = PidController::default();
        for _ in 0..10 {
            pid.next_cap(80.0, 10.0);
        }
        pid.reset();
        let fresh = PidController::default().next_cap(80.0, 10.0);
        assert_eq!(pid.next_cap(80.0, 10.0), fresh);
    }

    #[test]
    fn naive_throttles_and_restores() {
        let mut naive = NaiveTdpPolicy::new();
        assert_eq!(naive.next_cap(80.0, 50.0), 80.0);
        assert_eq!(naive.next_cap(80.0, 90.0), 40.0); // violation → throttle
        assert_eq!(naive.next_cap(80.0, 60.0), 40.0); // still above restore point
        assert_eq!(naive.next_cap(80.0, 40.0), 80.0); // cooled → restore
    }

    #[test]
    fn naive_reset() {
        let mut naive = NaiveTdpPolicy::new();
        naive.next_cap(80.0, 100.0);
        naive.reset();
        assert_eq!(naive.next_cap(80.0, 75.0), 80.0);
    }

    #[test]
    fn governor_is_object_safe() {
        let mut governors: Vec<Box<dyn PowerGovernor>> = vec![
            Box::new(PidController::default()),
            Box::new(NaiveTdpPolicy::new()),
        ];
        for g in &mut governors {
            let _ = g.next_cap(80.0, 40.0);
        }
    }
}
