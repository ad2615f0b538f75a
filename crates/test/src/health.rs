//! Per-core health state machine: the bridge between fault *detection*
//! and fault *response*.
//!
//! Detection alone is telemetry; the paper's online testing only pays off
//! if a detected core is actually withdrawn before it corrupts more
//! application work. The [`HealthBoard`] tracks one [`CoreHealth`] per
//! core:
//!
//! ```text
//!            detection (or false positive)
//! Healthy ──────────────────────────────────▶ Suspect { level, remaining }
//!    ▲  ▲                                         │
//!    │  │  K retests, symptom never reproduced    │ any retest reproduces
//!    │  └─────────────────────────────────────────┤ the symptom
//!    │                                            ▼
//!    │       probe lane picks the core up    Quarantined { backoff }
//!    │      ┌─────────────────────────────────────┘    ▲
//!    │      ▼                                          │
//!    │  Probation { streak, backoff }                  │ a probe reproduces
//!    │      │                                          │ the symptom
//!    │      │ streak of clean probes reaches the       │ (backoff += 1)
//!    │      │ re-admission threshold                   │
//!    └──────┴──────────────────────────────────────────┘
//! ```
//!
//! A `Suspect` core stays schedulable for *tests* (the confirmation
//! retests run on it, pinned to the detecting V/f level) but takes no new
//! application work. `Quarantined` is no longer terminal: the core is
//! power-gated and removed from the mapper's free set, but a background
//! re-admission lane may move it to `Probation` and run cheap low-V/f
//! probe routines at a slow cadence. A streak of clean probes re-admits
//! the core to `Healthy`; a probe that reproduces the symptom sends it
//! back to `Quarantined` with an exponentially backed-off retry cadence.
//! Until the re-admission fires, a withdrawn core ([`CoreHealth::Quarantined`]
//! or [`CoreHealth::Probation`]) takes no application work and its share
//! of the power budget stays derated away.

use manytest_power::VfLevel;
use serde::{Deserialize, Serialize};

/// Health state of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreHealth {
    /// No open detection; full citizen of the mapper and scheduler.
    Healthy,
    /// A detection is awaiting confirmation.
    Suspect {
        /// DVFS level the detection happened at; retests are pinned here.
        level: VfLevel,
        /// Confirmation retests still to run before the core is cleared.
        remaining: u8,
        /// Confirmation retests completed so far in this suspicion.
        used: u8,
    },
    /// Confirmed faulty and withdrawn; eligible for probation once the
    /// re-admission lane's backed-off cadence comes due.
    Quarantined {
        /// Failed probation rounds so far (exponent of the retry
        /// cadence's backoff multiplier).
        backoff: u8,
    },
    /// Withdrawn from mapping but under active re-admission probing.
    Probation {
        /// Consecutive clean probes banked this probation round.
        streak: u8,
        /// Failed probation rounds before this one.
        backoff: u8,
    },
}

/// The per-core health table (see module docs).
///
/// # Examples
///
/// ```
/// use manytest_sbst::health::{CoreHealth, HealthBoard};
/// use manytest_power::VfLevel;
///
/// let mut board = HealthBoard::new(4);
/// board.mark_suspect(2, VfLevel(1), 3);
/// assert!(board.is_suspect(2));
/// assert!(!board.is_healthy(2));
/// let used = board.quarantine(2);
/// assert_eq!(used, 0);
/// assert_eq!(board.quarantined_count(), 1);
/// // The re-admission lane can probe the core back to health.
/// board.begin_probation(2);
/// assert_eq!(board.note_probe_pass(2), 1);
/// assert_eq!(board.readmit(2), 1);
/// assert!(board.is_healthy(2));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthBoard {
    states: Vec<CoreHealth>,
    /// Cores `Quarantined` or on `Probation`, maintained by [`Self::set`]
    /// so the per-epoch [`Self::withdrawn_count`] needs no scan.
    withdrawn: usize,
}

impl HealthBoard {
    /// A board with every core healthy.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        HealthBoard {
            states: vec![CoreHealth::Healthy; cores],
            withdrawn: 0,
        }
    }

    /// The one state write: moves `core` to `state`, counting it in or
    /// out of the withdrawn set when it crosses that boundary.
    fn set(&mut self, core: usize, state: CoreHealth) {
        let was = Self::withdrawn_state(self.states[core]);
        let is = Self::withdrawn_state(state);
        self.states[core] = state;
        match (was, is) {
            (false, true) => self.withdrawn += 1,
            (true, false) => self.withdrawn -= 1,
            _ => {}
        }
    }

    fn withdrawn_state(state: CoreHealth) -> bool {
        matches!(
            state,
            CoreHealth::Quarantined { .. } | CoreHealth::Probation { .. }
        )
    }

    /// The health state of `core`.
    pub fn state(&self, core: usize) -> CoreHealth {
        self.states[core]
    }

    /// True if `core` is fully healthy.
    pub fn is_healthy(&self, core: usize) -> bool {
        matches!(self.states[core], CoreHealth::Healthy)
    }

    /// True if `core` awaits confirmation retests.
    pub fn is_suspect(&self, core: usize) -> bool {
        matches!(self.states[core], CoreHealth::Suspect { .. })
    }

    /// True if `core` is quarantined and awaiting its next probation
    /// round (does not include cores already under probation).
    pub fn is_quarantined(&self, core: usize) -> bool {
        matches!(self.states[core], CoreHealth::Quarantined { .. })
    }

    /// True if `core` is under active re-admission probing.
    pub fn is_probation(&self, core: usize) -> bool {
        matches!(self.states[core], CoreHealth::Probation { .. })
    }

    /// True if `core` is withdrawn from application mapping — either
    /// quarantined or on probation. Until `readmit` fires, the mapper
    /// must treat both the same.
    pub fn is_withdrawn(&self, core: usize) -> bool {
        Self::withdrawn_state(self.states[core])
    }

    /// The pinned retest level of a suspect core.
    pub fn suspect_level(&self, core: usize) -> Option<VfLevel> {
        match self.states[core] {
            CoreHealth::Suspect { level, .. } => Some(level),
            _ => None,
        }
    }

    /// Opens a suspicion on `core`: `retests` confirmations pinned to
    /// `level`. No-op unless the core is currently healthy (an open
    /// suspicion keeps its original level and budget; a withdrawn core
    /// only comes back through probation).
    pub fn mark_suspect(&mut self, core: usize, level: VfLevel, retests: u8) {
        if matches!(self.states[core], CoreHealth::Healthy) {
            self.set(
                core,
                CoreHealth::Suspect {
                    level,
                    remaining: retests,
                    used: 0,
                },
            );
        }
    }

    /// Records one completed confirmation retest on a suspect core.
    /// Returns `(used, remaining)` after the decrement; `(0, 0)` if the
    /// core was not suspect.
    pub fn note_retest_complete(&mut self, core: usize) -> (u8, u8) {
        match self.states[core] {
            CoreHealth::Suspect {
                level,
                remaining,
                used,
            } => {
                let remaining = remaining.saturating_sub(1);
                let used = used.saturating_add(1);
                let state = CoreHealth::Suspect {
                    level,
                    remaining,
                    used,
                };
                self.set(core, state);
                (used, remaining)
            }
            _ => (0, 0),
        }
    }

    /// Moves `core` to `Quarantined` with a fresh backoff ladder (a new
    /// confirmed detection restarts the retry cadence). Returns the
    /// number of confirmation retests that had completed in the
    /// suspicion.
    pub fn quarantine(&mut self, core: usize) -> u8 {
        let used = match self.states[core] {
            CoreHealth::Suspect { used, .. } => used,
            _ => 0,
        };
        self.set(core, CoreHealth::Quarantined { backoff: 0 });
        used
    }

    /// Starts a probation round on a quarantined `core` (the backoff
    /// ladder carries over). Returns the carried backoff; no-op
    /// (returning 0) unless the core is quarantined.
    pub fn begin_probation(&mut self, core: usize) -> u8 {
        match self.states[core] {
            CoreHealth::Quarantined { backoff } => {
                self.set(core, CoreHealth::Probation { streak: 0, backoff });
                backoff
            }
            _ => 0,
        }
    }

    /// Records one clean probe on a probation `core`. Returns the new
    /// streak length; 0 if the core was not on probation.
    pub fn note_probe_pass(&mut self, core: usize) -> u8 {
        match self.states[core] {
            CoreHealth::Probation { streak, backoff } => {
                let streak = streak.saturating_add(1);
                self.set(core, CoreHealth::Probation { streak, backoff });
                streak
            }
            _ => 0,
        }
    }

    /// Re-admits a probation `core` to `Healthy`. Returns the clean-probe
    /// streak that earned the re-admission; no-op (returning 0) unless
    /// the core is on probation.
    pub fn readmit(&mut self, core: usize) -> u8 {
        match self.states[core] {
            CoreHealth::Probation { streak, .. } => {
                self.set(core, CoreHealth::Healthy);
                streak
            }
            _ => 0,
        }
    }

    /// Fails a probation round: `core` returns to `Quarantined` with the
    /// backoff exponent bumped (saturating). Returns the new backoff;
    /// no-op (returning 0) unless the core is on probation.
    pub fn fail_probation(&mut self, core: usize) -> u8 {
        match self.states[core] {
            CoreHealth::Probation { backoff, .. } => {
                let bumped = backoff.saturating_add(1);
                self.set(core, CoreHealth::Quarantined { backoff: bumped });
                bumped
            }
            _ => 0,
        }
    }

    /// The clean-probe streak of a probation core (0 for other states).
    pub fn probe_streak(&self, core: usize) -> u8 {
        match self.states[core] {
            CoreHealth::Probation { streak, .. } => streak,
            _ => 0,
        }
    }

    /// Clears a suspect `core` back to `Healthy`. Returns the number of
    /// confirmation retests that had completed; no-op (returning 0) on a
    /// withdrawn core — the only way back from quarantine is a clean
    /// probation round.
    pub fn clear(&mut self, core: usize) -> u8 {
        match self.states[core] {
            CoreHealth::Suspect { used, .. } => {
                self.set(core, CoreHealth::Healthy);
                used
            }
            _ => 0,
        }
    }

    /// Cores currently `Quarantined` (excluding probation).
    pub fn quarantined_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, CoreHealth::Quarantined { .. }))
            .count()
    }

    /// Cores currently on `Probation`.
    pub fn probation_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| matches!(s, CoreHealth::Probation { .. }))
            .count()
    }

    /// Cores withdrawn from mapping (`Quarantined` + `Probation`), O(1):
    /// a maintained count that must equal the sum of the two scans above.
    pub fn withdrawn_count(&self) -> usize {
        debug_assert_eq!(
            self.withdrawn,
            self.quarantined_count() + self.probation_count(),
            "withdrawn counter drifted from the state scans"
        );
        self.withdrawn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_board_is_all_healthy() {
        let board = HealthBoard::new(8);
        assert!((0..8).all(|c| board.is_healthy(c)));
        assert_eq!(board.quarantined_count(), 0);
        assert_eq!(board.probation_count(), 0);
    }

    #[test]
    fn suspicion_tracks_level_and_retest_budget() {
        let mut board = HealthBoard::new(4);
        board.mark_suspect(1, VfLevel(2), 3);
        assert_eq!(board.suspect_level(1), Some(VfLevel(2)));
        assert_eq!(board.note_retest_complete(1), (1, 2));
        assert_eq!(board.note_retest_complete(1), (2, 1));
        assert_eq!(board.note_retest_complete(1), (3, 0));
        // Exhausting the budget does not auto-clear; the caller decides.
        assert!(board.is_suspect(1));
        assert_eq!(board.clear(1), 3);
        assert!(board.is_healthy(1));
    }

    #[test]
    fn re_marking_an_open_suspect_keeps_the_original_suspicion() {
        let mut board = HealthBoard::new(2);
        board.mark_suspect(0, VfLevel(1), 3);
        board.note_retest_complete(0);
        board.mark_suspect(0, VfLevel(4), 9);
        assert_eq!(board.suspect_level(0), Some(VfLevel(1)));
        assert_eq!(board.note_retest_complete(0), (2, 1));
    }

    #[test]
    fn quarantine_exits_only_through_probation() {
        let mut board = HealthBoard::new(3);
        board.mark_suspect(2, VfLevel(0), 2);
        board.note_retest_complete(2);
        assert_eq!(board.quarantine(2), 1);
        assert!(board.is_quarantined(2));
        assert!(board.is_withdrawn(2));
        // Neither clearing nor re-suspecting resurrects the core.
        assert_eq!(board.clear(2), 0);
        assert!(board.is_quarantined(2));
        board.mark_suspect(2, VfLevel(0), 2);
        assert!(board.is_quarantined(2));
        assert!(board.is_healthy(0) && board.is_healthy(1));
        // Probe passes and re-admission do.
        assert_eq!(board.begin_probation(2), 0);
        assert!(board.is_probation(2));
        assert!(board.is_withdrawn(2));
        assert!(!board.is_quarantined(2));
        assert_eq!(board.note_probe_pass(2), 1);
        assert_eq!(board.note_probe_pass(2), 2);
        assert_eq!(board.readmit(2), 2);
        assert!((0..3).all(|c| board.is_healthy(c)));
    }

    #[test]
    fn failed_probation_backs_off_exponentially() {
        let mut board = HealthBoard::new(2);
        board.quarantine(1);
        assert_eq!(board.begin_probation(1), 0);
        board.note_probe_pass(1);
        // A probe reproducing the symptom wipes the streak and bumps
        // the backoff exponent.
        assert_eq!(board.fail_probation(1), 1);
        assert!(board.is_quarantined(1));
        assert_eq!(board.begin_probation(1), 1);
        assert_eq!(board.probe_streak(1), 0);
        assert_eq!(board.fail_probation(1), 2);
        assert!(board.is_quarantined(1));
        // A fresh confirmed quarantine restarts the ladder.
        board.begin_probation(1);
        board.readmit(1);
        board.quarantine(1);
        assert_eq!(board.begin_probation(1), 0);
    }

    #[test]
    fn probation_calls_on_wrong_states_are_noops() {
        let mut board = HealthBoard::new(2);
        assert_eq!(board.begin_probation(0), 0);
        assert!(board.is_healthy(0));
        assert_eq!(board.note_probe_pass(0), 0);
        assert_eq!(board.readmit(0), 0);
        assert_eq!(board.fail_probation(0), 0);
        assert!(board.is_healthy(0));
        board.mark_suspect(0, VfLevel(1), 2);
        assert_eq!(board.begin_probation(0), 0);
        assert!(board.is_suspect(0));
    }

    #[test]
    fn retest_noted_on_non_suspect_core_is_a_noop() {
        let mut board = HealthBoard::new(2);
        assert_eq!(board.note_retest_complete(0), (0, 0));
        assert!(board.is_healthy(0));
    }

    #[test]
    fn withdrawn_counter_follows_every_transition() {
        let mut board = HealthBoard::new(4);
        let check = |board: &HealthBoard, step: &str, expected: usize| {
            let scans = board.quarantined_count() + board.probation_count();
            assert_eq!(board.withdrawn_count(), scans, "after {step}");
            assert_eq!(scans, expected, "after {step}");
        };
        check(&board, "new", 0);
        board.mark_suspect(0, VfLevel(1), 2);
        check(&board, "mark_suspect", 0);
        board.note_retest_complete(0);
        check(&board, "note_retest_complete", 0);
        board.clear(0);
        check(&board, "clear of a suspect", 0);
        board.mark_suspect(0, VfLevel(1), 2);
        board.quarantine(0);
        check(&board, "quarantine of a suspect", 1);
        board.quarantine(0);
        check(&board, "quarantine of a quarantined core", 1);
        board.quarantine(1);
        check(&board, "quarantine of a healthy core", 2);
        board.clear(1);
        check(&board, "clear of a quarantined core", 2);
        board.begin_probation(0);
        check(&board, "begin_probation", 2);
        board.quarantine(0);
        check(&board, "quarantine of a probation core", 2);
        board.begin_probation(0);
        board.note_probe_pass(0);
        check(&board, "note_probe_pass", 2);
        board.fail_probation(0);
        check(&board, "fail_probation", 2);
        board.begin_probation(0);
        board.readmit(0);
        check(&board, "readmit", 1);
        board.readmit(0);
        board.fail_probation(1);
        board.begin_probation(2);
        check(&board, "no-op transitions", 1);
        board.begin_probation(1);
        board.readmit(1);
        check(&board, "readmit of the last withdrawn core", 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        HealthBoard::new(0);
    }
}
