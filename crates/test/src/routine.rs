//! The SBST routine library.
//!
//! A software-based self-test routine is an instruction sequence targeting
//! one functional block. Published SBST suites run from hundreds of kilo-
//! to a few mega-instructions per block (milliseconds of core time) with
//! structural fault coverages around 90–95 %. The library below models a
//! five-block suite; a *full pass* over a core means running every routine
//! once.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a routine in its [`RoutineLibrary`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct RoutineId(pub u16);

impl RoutineId {
    /// The id as a vector index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RoutineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One SBST routine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestRoutine {
    /// Functional block the routine exercises.
    pub name: String,
    /// Instruction count of the routine.
    pub instructions: u64,
    /// Switching activity while the routine runs (higher than workload).
    pub activity: f64,
    /// Structural fault coverage of the targeted block, in `[0, 1]`.
    pub coverage: f64,
    /// Probability that a completed run reports a fault on a *healthy*
    /// core — signature aliasing, marginal timing at the test V/f point,
    /// sensor noise. Zero (the default) models an ideal routine; nonzero
    /// values exercise the confirmation-retest path.
    pub false_positive_rate: f64,
}

impl TestRoutine {
    /// Creates a routine.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero, or `activity`/`coverage` are
    /// outside `[0, 1]`.
    pub fn new(name: impl Into<String>, instructions: u64, activity: f64, coverage: f64) -> Self {
        assert!(instructions > 0, "routine must execute instructions");
        assert!(
            (0.0..=1.0).contains(&activity),
            "activity must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&coverage),
            "coverage must be in [0,1]"
        );
        TestRoutine {
            name: name.into(),
            instructions,
            activity,
            coverage,
            false_positive_rate: 0.0,
        }
    }

    /// Sets the false-positive rate (see the field doc).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a probability in `[0, 1]`.
    pub fn with_false_positive_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "false-positive rate must be in [0,1]"
        );
        self.false_positive_rate = rate;
        self
    }

    /// Wall time of the routine on a core running at `frequency` Hz with
    /// the given instructions-per-cycle, in seconds.
    ///
    /// # Panics
    ///
    /// Panics unless both `frequency` and `ipc` are strictly positive.
    pub fn duration(&self, frequency: f64, ipc: f64) -> f64 {
        assert!(frequency > 0.0 && ipc > 0.0, "frequency and IPC must be positive");
        self.instructions as f64 / (frequency * ipc)
    }
}

/// An ordered set of routines; a full pass runs them all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutineLibrary {
    routines: Vec<TestRoutine>,
}

impl RoutineLibrary {
    /// The five-block suite used throughout the evaluation: ALU, FPU,
    /// load/store unit, register file and branch/control logic. Routine
    /// lengths put one session at roughly 0.7–3 ms of core time depending
    /// on the DVFS level — the millisecond scale published SBST suites
    /// take, and long enough to span control epochs (which is what makes
    /// testing *cost* something the scheduler must manage).
    pub fn standard() -> Self {
        RoutineLibrary {
            routines: vec![
                TestRoutine::new("alu", 1_440_000, 0.85, 0.95),
                TestRoutine::new("fpu", 2_400_000, 0.90, 0.92),
                TestRoutine::new("lsu", 1_800_000, 0.75, 0.90),
                TestRoutine::new("regfile", 960_000, 0.70, 0.97),
                TestRoutine::new("control", 1_200_000, 0.80, 0.88),
            ],
        }
    }

    /// Number of routines (= routines per full pass).
    pub fn len(&self) -> usize {
        self.routines.len()
    }

    /// A library is never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The routine with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn routine(&self, id: RoutineId) -> &TestRoutine {
        &self.routines[id.index()]
    }

    /// All routines in pass order.
    pub fn iter(&self) -> impl Iterator<Item = (RoutineId, &TestRoutine)> {
        self.routines
            .iter()
            .enumerate()
            .map(|(i, r)| (RoutineId(i as u16), r))
    }

    /// The routine after `id` in the rotation (wraps to the first).
    #[inline]
    pub fn next_in_rotation(&self, id: RoutineId) -> RoutineId {
        RoutineId(((id.0 as usize + 1) % self.routines.len()) as u16)
    }

    /// Returns the library with every routine's false-positive rate set
    /// to `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not a probability in `[0, 1]`.
    pub fn with_false_positive_rate(mut self, rate: f64) -> Self {
        self.routines = self
            .routines
            .into_iter()
            .map(|r| r.with_false_positive_rate(rate))
            .collect();
        self
    }
}

impl Default for RoutineLibrary {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_shape() {
        let lib = RoutineLibrary::standard();
        assert_eq!(lib.len(), 5);
        let instructions: u64 = lib.iter().map(|(_, r)| r.instructions).sum();
        assert_eq!(instructions, 7_800_000);
        assert!(lib.iter().any(|(_, r)| r.activity >= 0.9));
    }

    #[test]
    fn duration_scales_inversely_with_frequency() {
        let r = TestRoutine::new("x", 1_000_000, 0.8, 0.9);
        let slow = r.duration(1.0e9, 1.0);
        let fast = r.duration(2.0e9, 1.0);
        assert!((slow - 2.0 * fast).abs() < 1e-12);
        assert!((slow - 1.0e-3).abs() < 1e-12);
    }

    #[test]
    fn duration_scales_inversely_with_ipc() {
        let r = TestRoutine::new("x", 1_000_000, 0.8, 0.9);
        assert!(r.duration(1.0e9, 2.0) < r.duration(1.0e9, 1.0));
    }

    #[test]
    fn rotation_wraps() {
        let lib = RoutineLibrary::standard();
        let last = RoutineId((lib.len() - 1) as u16);
        assert_eq!(lib.next_in_rotation(last), RoutineId(0));
        assert_eq!(lib.next_in_rotation(RoutineId(0)), RoutineId(1));
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let lib = RoutineLibrary::standard();
        let ids: Vec<RoutineId> = lib.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, (0..5).map(RoutineId).collect::<Vec<_>>());
    }

    #[test]
    fn routines_have_test_grade_activity() {
        // SBST routines toggle more than typical workload (α ≈ 0.5).
        for (_, r) in RoutineLibrary::standard().iter() {
            assert!(r.activity >= 0.7, "{} activity too low", r.name);
            assert!(r.coverage >= 0.85, "{} coverage too low", r.name);
        }
    }

    #[test]
    #[should_panic(expected = "instructions")]
    fn zero_instruction_routine_panics() {
        TestRoutine::new("bad", 0, 0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "coverage")]
    fn invalid_coverage_panics() {
        TestRoutine::new("bad", 10, 0.5, 1.5);
    }

    #[test]
    fn display_id() {
        assert_eq!(RoutineId(3).to_string(), "r3");
    }

    #[test]
    fn false_positive_rate_defaults_to_zero_and_applies_library_wide() {
        let lib = RoutineLibrary::standard();
        for (_, r) in lib.iter() {
            assert_eq!(r.false_positive_rate, 0.0);
        }
        let noisy = lib.with_false_positive_rate(0.02);
        for (_, r) in noisy.iter() {
            assert_eq!(r.false_positive_rate, 0.02);
        }
    }

    #[test]
    #[should_panic(expected = "false-positive rate")]
    fn invalid_false_positive_rate_panics() {
        TestRoutine::new("x", 10, 0.5, 0.5).with_false_positive_rate(1.5);
    }
}
