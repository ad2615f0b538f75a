//! In-flight test sessions with non-intrusive abort.

use crate::routine::RoutineId;
use manytest_power::VfLevel;
use serde::{Deserialize, Serialize};

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionOutcome {
    /// The routine ran to completion; the core's coverage advanced.
    Completed,
    /// The mapper reclaimed the core before the routine finished; no
    /// coverage credit (SBST signatures are only valid for full runs).
    Aborted,
}

/// One SBST routine executing on one core at one V/f level.
///
/// The session tracks instruction progress only; its reserved power lives
/// in the caller's [`manytest_power::PowerBudget`] reservation.
///
/// # Examples
///
/// ```
/// use manytest_sbst::session::TestSession;
/// use manytest_sbst::routine::RoutineId;
/// use manytest_power::VfLevel;
///
/// let mut s = TestSession::new(RoutineId(0), VfLevel(2), 100_000, 1.2e9, 0.0);
/// let before = s.remaining_seconds();
/// s.advance(0.5e-4);
/// assert!(s.remaining_seconds() < before);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestSession {
    routine: RoutineId,
    level: VfLevel,
    total_instructions: u64,
    executed_instructions: f64,
    rate: f64,
    started_at: f64,
}

impl TestSession {
    /// Creates a session running `routine` at `level`.
    ///
    /// `rate` is the core's execution rate at that level
    /// (`frequency × IPC`, instructions per second); `now` is the start
    /// time in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `total_instructions` is zero or `rate` is not strictly
    /// positive.
    #[inline]
    pub fn new(
        routine: RoutineId,
        level: VfLevel,
        total_instructions: u64,
        rate: f64,
        now: f64,
    ) -> Self {
        assert!(total_instructions > 0, "session needs instructions");
        assert!(rate > 0.0, "execution rate must be positive");
        TestSession {
            routine,
            level,
            total_instructions,
            executed_instructions: 0.0,
            rate,
            started_at: now,
        }
    }

    /// The routine being run.
    pub fn routine(&self) -> RoutineId {
        self.routine
    }

    /// The V/f level the test runs at.
    pub fn level(&self) -> VfLevel {
        self.level
    }

    /// Session start time, seconds.
    pub fn started_at(&self) -> f64 {
        self.started_at
    }

    /// Advances the session by `dt` seconds of execution.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative.
    pub fn advance(&mut self, dt: f64) {
        assert!(dt >= 0.0, "time must advance forwards");
        self.executed_instructions =
            (self.executed_instructions + self.rate * dt).min(self.total_instructions as f64);
    }

    /// Seconds of execution remaining at the session's rate.
    pub fn remaining_seconds(&self) -> f64 {
        (self.total_instructions as f64 - self.executed_instructions).max(0.0) / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> TestSession {
        TestSession::new(RoutineId(2), VfLevel(1), 1_000_000, 2.0e9, 0.5)
    }

    #[test]
    fn fresh_session_state() {
        let s = session();
        assert_eq!(s.routine(), RoutineId(2));
        assert_eq!(s.level(), VfLevel(1));
        assert_eq!(s.started_at(), 0.5);
        assert!((s.remaining_seconds() - 0.5e-3).abs() < 1e-12);
    }

    #[test]
    fn advance_accumulates_progress() {
        let mut s = session();
        s.advance(0.25e-3); // half the routine at 2 GIPS
        assert!((s.remaining_seconds() - 0.25e-3).abs() < 1e-12);
        s.advance(0.25e-3);
        assert_eq!(s.remaining_seconds(), 0.0);
    }

    #[test]
    fn advance_clamps_at_completion() {
        let mut s = session();
        s.advance(10.0);
        assert_eq!(s.remaining_seconds(), 0.0);
    }

    #[test]
    fn zero_advance_is_noop() {
        let mut s = session();
        s.advance(0.0);
        assert!((s.remaining_seconds() - 0.5e-3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "instructions")]
    fn zero_instructions_panics() {
        TestSession::new(RoutineId(0), VfLevel(0), 0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        TestSession::new(RoutineId(0), VfLevel(0), 10, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "forwards")]
    fn negative_advance_panics() {
        session().advance(-1.0);
    }

    #[test]
    fn outcome_variants_are_distinct() {
        assert_ne!(SessionOutcome::Completed, SessionOutcome::Aborted);
    }
}
