//! The schedule phase's wake-up calendar.
//!
//! Each epoch the test scheduler ranks the healthy idle cores whose
//! criticality has reached its threshold. Most testable cores sit below
//! it, so evaluating every one of them every epoch is mostly wasted. The
//! calendar keeps, per core, the first epoch at which the core's
//! criticality *could* reach the threshold, and a schedule call evaluates
//! only the cores that are due.
//!
//! The prediction is exact because of how criticality moves
//! ([`CriticalityModel::rise_bound`]): the staleness term grows at the
//! same slope on every core, `damage_since_test` grows by at most one
//! epoch's damage increment per epoch, and a completed test only lowers
//! it. So with `R` bounding every core's per-epoch damage increment, busy
//! or idle, a core at criticality `c < θ` cannot reach `θ` within
//! `(θ − c) / rise` epochs. The bound is adaptive: it starts at
//! zero, and when the wear pass reports a larger increment the calendar
//! raises it and wakes every core, so a wrong bound costs evaluations,
//! never launches. A core below the threshold never becomes a launch or a
//! denial, so launches, denials and their order are the full scan's.
//!
//! On the steady thermal path a power-gated core's damage depends on
//! nothing but its own power, exactly `AgingModel::damage(0, EPOCH)` per
//! epoch, so a gated core sleeps on that bound as long as it stays gated
//! ([`WakeCalendar::power_on`] drops it back to the global bound). The
//! cores that have never been powered share one wear history there, and
//! the calendar keeps one wake epoch for the whole class.

use manytest_aging::CriticalityModel;

/// Factor by which a raised damage bound exceeds the increment that
/// raised it. Peak wear drifts upward as the die heats, and every raise
/// wakes every core; the headroom makes raises rare (a few per run)
/// instead of one per epoch of drift.
const RATE_MARGIN: f64 = 1.25;

/// Share of the gap to the threshold a sleeping core may cover before it
/// is evaluated again. The rest of the gap, at least `1/SLACK − 1` epochs
/// of rise, absorbs the rounding of the criticality arithmetic, the
/// damage sums and the f64 epoch clock: a few ulps each of a criticality
/// that has risen at most one epoch's rise per epoch (DESIGN.md has the
/// arithmetic). Waking early only costs one evaluation.
const SLACK: f64 = 0.9;

/// Per-core wake epochs under a global per-epoch damage bound, and under
/// a gated core's own bound on the steady thermal path.
#[derive(Debug, Clone)]
pub(crate) struct WakeCalendar {
    model: CriticalityModel,
    threshold: f64,
    dt: f64,
    /// Epochs closed so far: the index of the current schedule call.
    epoch: u32,
    /// Largest damage any core may gain per epoch. Every wake epoch the
    /// global bound gave was computed under this value.
    damage_bound: f64,
    /// Criticality rise per epoch under `damage_bound`.
    rise: f64,
    /// Criticality rise per epoch of a power-gated core on the steady
    /// thermal path; `None` on the transient path, where a gated tile
    /// heats with its neighbours.
    gated_rise: Option<f64>,
    /// Per core, the first epoch at which the core must be evaluated
    /// again; then per core, the wake epoch the global bound gave at the
    /// same offer, never later than the first. Empty until the first
    /// schedule call: runs with testing off never size it.
    wake: Vec<u32>,
    /// The never-powered class's wake epoch and its global-bound wake.
    class_wake: u32,
    class_global: u32,
}

impl WakeCalendar {
    /// A calendar for a run with epochs of `dt` seconds that ranks cores
    /// at or above `threshold` under `model`. `gated_damage` is a gated
    /// core's damage per epoch on the steady thermal path, `None` on the
    /// transient path. Allocates nothing.
    pub(crate) fn new(
        model: CriticalityModel,
        threshold: f64,
        dt: f64,
        gated_damage: Option<f64>,
    ) -> Self {
        WakeCalendar {
            model,
            threshold,
            dt,
            epoch: 0,
            damage_bound: 0.0,
            rise: model.rise_bound(dt, 0.0),
            gated_rise: gated_damage.map(|d| model.rise_bound(dt, RATE_MARGIN * d)),
            wake: Vec::new(),
            class_wake: 0,
            class_global: 0,
        }
    }

    /// Folds in one closed epoch whose largest per-core damage increment
    /// was `max_damage`. If it exceeds the bound, the bound is raised and
    /// every core becomes due.
    pub(crate) fn close_epoch(&mut self, max_damage: f64) {
        self.epoch = self.epoch.saturating_add(1);
        if max_damage > self.damage_bound {
            self.damage_bound = RATE_MARGIN * max_damage;
            self.rise = self.model.rise_bound(self.dt, self.damage_bound);
            self.wake.fill(0);
            self.class_wake = 0;
            self.class_global = 0;
        }
    }

    /// Sizes the calendar for `cores` cores, all due. Only the first
    /// schedule call allocates.
    pub(crate) fn ensure_len(&mut self, cores: usize) {
        if self.wake.len() != 2 * cores {
            self.wake.resize(2 * cores, 0);
        }
    }

    /// The due cores among `64·word .. 64·word + 64`, as a bit mask in
    /// the layout of [`crate::store::CoreStore::testable_words`].
    ///
    /// The compares fill one byte per core, 0 or 1, which vectorise; one
    /// multiply then gathers each 8 bytes into a byte of the mask. In
    /// `v · 0x0102_0408_1020_4080` byte `j` of `v` lands on bits
    /// `8j + 7k + 7` for `k` in `0..8`: distinct for every `(j, k)`, so
    /// nothing carries, and bit `56 + j` comes from `k = 7 − j` alone.
    pub(crate) fn due_word(&self, word: usize) -> u64 {
        const GATHER: u64 = 0x0102_0408_1020_4080;
        let epoch = self.epoch;
        let mut due = [[0u8; 8]; 8];
        for (d, &wake) in due
            .as_flattened_mut()
            .iter_mut()
            .zip(&self.wake[word * 64..self.wake.len() / 2])
        {
            *d = u8::from(wake <= epoch);
        }
        due.iter().enumerate().fold(0, |mask, (byte, &bits)| {
            mask | (u64::from_le_bytes(bits).wrapping_mul(GATHER) >> 56) << (8 * byte)
        })
    }

    /// [`Self::due_word`] as it was written first: a 64-step shift-or
    /// fold. The oracle for the byte-parallel mask.
    #[cfg(test)]
    fn due_word_reference(&self, word: usize) -> u64 {
        let epoch = self.epoch;
        self.wake[word * 64..self.wake.len() / 2]
            .iter()
            .take(64)
            .enumerate()
            .fold(0, |mask, (bit, &wake)| {
                mask | (u64::from(wake <= epoch) << bit)
            })
    }

    /// Offers due core `core`'s current `criticality`; `gated` says the
    /// core is power-gated. Returns true when it has reached the
    /// threshold; the core then stays due. Otherwise the core sleeps
    /// through every epoch in which it provably stays below the
    /// threshold.
    pub(crate) fn offer(&mut self, core: usize, criticality: f64, gated: bool) -> bool {
        if criticality >= self.threshold {
            return true;
        }
        let (wake, global) = self.wakes(criticality, gated);
        let cores = self.wake.len() / 2;
        if let Some(g) = global {
            self.wake[cores + core] = g;
        }
        if let Some(w) = wake {
            self.wake[core] = w;
        }
        false
    }

    /// Whether the never-powered class is due.
    pub(crate) fn class_due(&self) -> bool {
        self.class_wake <= self.epoch
    }

    /// [`Self::offer`] for the never-powered class, whose members are all
    /// gated and share `criticality`.
    pub(crate) fn offer_class(&mut self, criticality: f64) -> bool {
        if criticality >= self.threshold {
            return true;
        }
        let (wake, global) = self.wakes(criticality, true);
        if let Some(g) = global {
            self.class_global = g;
        }
        if let Some(w) = wake {
            self.class_wake = w;
        }
        false
    }

    /// The wake epochs of a core at `criticality` below the threshold:
    /// under its own bound (the later of the global and, for a gated core
    /// on the steady path, the gated one) and under the global bound.
    /// `None` keeps the core due.
    fn wakes(&self, criticality: f64, gated: bool) -> (Option<u32>, Option<u32>) {
        let after = |rise: f64| {
            // NaN (never, for a validated config) fails the comparison
            // and keeps the core due; a zero rise sleeps the core until a
            // raise.
            let skip = SLACK * (self.threshold - criticality) / rise;
            // `skip` is positive, so `as` rounds it down as `floor` would,
            // without a libm call; it saturates, and so does the sum.
            (skip >= 1.0).then(|| self.epoch.saturating_add(1).saturating_add(skip as u32))
        };
        let global = after(self.rise);
        let gated = self.gated_rise.filter(|_| gated).and_then(after);
        (global.max(gated), global)
    }

    /// Drops `core`, which is leaving `CoreMode::Off`, back to the wake
    /// epoch the global bound gave it; `never_powered` says it is leaving
    /// the never-powered class. A gated core's own bound holds only while
    /// it stays gated.
    pub(crate) fn power_on(&mut self, core: usize, never_powered: bool) {
        if self.gated_rise.is_none() || self.wake.is_empty() {
            return;
        }
        let cores = self.wake.len() / 2;
        let (wake, global) = self.wake.split_at_mut(cores);
        if never_powered {
            global[core] = self.class_global;
        }
        wake[core] = global[core];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 0.001;

    /// A gated core's damage per epoch in these tests.
    const GATED: f64 = 2e-5;

    fn calendar(threshold: f64) -> WakeCalendar {
        let mut c = WakeCalendar::new(CriticalityModel::default(), threshold, DT, Some(GATED));
        c.ensure_len(130);
        c
    }

    fn is_due(c: &WakeCalendar, core: usize) -> bool {
        c.due_word(core / 64) >> (core % 64) & 1 == 1
    }

    #[test]
    fn fresh_calendar_has_every_core_due() {
        let c = calendar(0.5);
        assert_eq!(c.due_word(0), u64::MAX);
        assert_eq!(c.due_word(1), u64::MAX);
        assert_eq!(
            c.due_word(2),
            0b11,
            "tail word covers cores 128 and 129 only"
        );
    }

    #[test]
    fn due_word_matches_reference() {
        // Wake epochs at, just before and just after the current epoch,
        // at 0 and u32::MAX, and random, on every tail-word length.
        let mut rng = manytest_sim::SimRng::seed_from(64);
        for cores in (1..=130).chain([192, 200, 4096]) {
            for _ in 0..8 {
                let mut c = calendar(0.5);
                c.ensure_len(cores);
                let epoch = match rng.gen_range(4) {
                    0 => 0,
                    1 => u32::MAX,
                    2 => u32::MAX - 1,
                    _ => rng.next_u64() as u32,
                };
                c.epoch = epoch;
                for wake in &mut c.wake {
                    *wake = match rng.gen_range(6) {
                        0 => 0,
                        1 => u32::MAX,
                        2 => epoch,
                        3 => epoch.saturating_add(1),
                        4 => epoch.saturating_sub(1),
                        _ => rng.next_u64() as u32,
                    };
                }
                for word in 0..cores.div_ceil(64) {
                    assert_eq!(
                        c.due_word(word),
                        c.due_word_reference(word),
                        "{cores} cores, word {word}, epoch {epoch}"
                    );
                }
            }
        }
    }

    #[test]
    fn cores_at_or_just_below_the_threshold_stay_due() {
        let mut c = calendar(0.5);
        assert!(c.offer(3, 0.5, false));
        assert!(c.offer(4, 7.0, true));
        assert!(!c.offer(6, 0.5 - 1e-6, true));
        c.close_epoch(0.0);
        assert_eq!(c.due_word(0) & 0b101_1000, 0b101_1000);
    }

    #[test]
    fn a_core_sleeps_exactly_while_it_cannot_reach_the_threshold() {
        let model = CriticalityModel::default();
        let mut c = calendar(0.5);
        // Raise the bound once so the rise includes wear.
        c.close_epoch(1e-4);
        let rise = model.rise_bound(DT, RATE_MARGIN * 1e-4);
        let crit = 0.2;
        assert!(!c.offer(5, crit, false));
        let skip = (SLACK * (0.5 - crit) / rise).floor() as u32;
        assert!(skip >= 1);
        for epoch in 1..=skip {
            c.close_epoch(1e-4);
            assert_eq!(c.due_word(0) >> 5 & 1, 0, "asleep {epoch} epochs after");
            // Even at the bound's full rise the core stays below.
            assert!(crit + f64::from(epoch) * rise < 0.5);
        }
        c.close_epoch(1e-4);
        assert_eq!(c.due_word(0) >> 5 & 1, 1, "due after {skip} skipped epochs");
    }

    #[test]
    fn a_raised_bound_wakes_every_core() {
        let mut c = calendar(0.5);
        for core in 0..130 {
            assert!(!c.offer(core, 0.0, core % 2 == 0));
        }
        c.close_epoch(0.0);
        assert_eq!(c.due_word(0) | c.due_word(1) | c.due_word(2), 0);
        c.close_epoch(1e-3);
        assert_eq!(c.due_word(1), u64::MAX);
        // An increment within the bound wakes nobody.
        for core in 0..130 {
            c.offer(core, 0.0, core % 2 == 0);
        }
        c.close_epoch(1e-3);
        assert_eq!(c.due_word(1), 0);
    }

    #[test]
    fn a_core_that_cannot_rise_sleeps_until_a_raise() {
        // Stress-only weights and no wear yet: criticality cannot grow.
        let model = CriticalityModel::new(1.0, 0.0);
        let mut c = WakeCalendar::new(model, 0.5, DT, Some(0.0));
        c.ensure_len(1);
        assert!(!c.offer(0, 0.0, true));
        assert_eq!(c.wake[0], u32::MAX);
        c.close_epoch(0.0);
        assert_eq!(c.due_word(0), 0);
        c.close_epoch(1e-6);
        assert_eq!(c.due_word(0), 1);
    }

    #[test]
    fn an_unsized_calendar_accepts_bound_updates() {
        let mut c = WakeCalendar::new(CriticalityModel::default(), 0.5, DT, None);
        c.close_epoch(1.0);
        c.close_epoch(2.0);
        c.ensure_len(3);
        assert_eq!(c.due_word(0), 0b111);
    }

    #[test]
    fn a_gated_core_never_wakes_before_its_global_wake() {
        // Criticalities across the gap, bounds below, at and far above
        // the gated damage, and the first epoch's zero bound.
        let mut rng = manytest_sim::SimRng::seed_from(33);
        for case in 0..200 {
            let mut c = calendar(0.5);
            let mut transient = WakeCalendar::new(CriticalityModel::default(), 0.5, DT, None);
            transient.ensure_len(130);
            let bound = [0.0, GATED / 2.0, GATED, 40.0 * GATED][case % 4];
            for _ in 0..rng.gen_range(3) {
                c.close_epoch(bound);
                transient.close_epoch(bound);
            }
            for core in 0..130 {
                let crit = rng.gen_f64_range(-0.5, 0.6);
                let gated = rng.gen_bool(0.5);
                assert_eq!(c.offer(core, crit, gated), crit >= 0.5);
                transient.offer(core, crit, gated);
                let (wake, global) = (c.wake[core], c.wake[130 + core]);
                assert!(wake >= global, "case {case} core {core}: {wake} < {global}");
                if !gated {
                    assert_eq!(wake, global, "case {case} core {core}: a powered core");
                }
                assert_eq!(transient.wake[core], transient.wake[130 + core]);
                assert_eq!(
                    transient.wake[130 + core],
                    global,
                    "case {case} core {core}"
                );
            }
        }
    }

    #[test]
    fn a_gated_core_sleeps_longer_and_power_on_makes_it_due_at_its_global_wake() {
        let mut c = calendar(0.5);
        // A bound well above a gated core's damage.
        c.close_epoch(40.0 * GATED);
        assert!(!c.offer(7, 0.1, true));
        assert!(!c.offer(8, 0.1, false));
        let global = c.wake[130 + 7];
        assert_eq!(c.wake[130 + 8], global);
        assert_eq!(c.wake[8], global);
        assert!(c.wake[7] > global + 1, "the gated bound sleeps longer");
        while c.epoch + 1 < global {
            c.close_epoch(0.0);
        }
        c.power_on(7, false);
        assert!(!is_due(&c, 7) && !is_due(&c, 8));
        c.close_epoch(0.0);
        assert_eq!(c.epoch, global);
        assert!(
            is_due(&c, 7) && is_due(&c, 8),
            "due exactly at the global wake"
        );
        // Powering on a due core keeps it due.
        c.power_on(8, false);
        assert!(is_due(&c, 8));
    }

    #[test]
    fn the_class_sleeps_on_the_gated_bound_and_hands_leavers_its_global_wake() {
        let mut c = calendar(0.5);
        assert!(c.class_due());
        assert!(c.offer_class(0.5));
        assert!(c.class_due(), "a class at the threshold stays due");
        c.close_epoch(40.0 * GATED);
        assert!(!c.offer_class(0.1));
        assert!(!c.offer(9, 0.1, true));
        assert_eq!(c.class_wake, c.wake[9]);
        assert_eq!(c.class_global, c.wake[130 + 9]);
        assert!(c.class_wake > c.class_global);
        assert!(!c.class_due());
        // Core 20 leaves the class: it is due at the class's global wake.
        c.power_on(20, true);
        assert_eq!(
            (c.wake[20], c.wake[130 + 20]),
            (c.class_global, c.class_global)
        );
        // A raise wakes the class too.
        c.close_epoch(80.0 * GATED);
        assert!(c.class_due());
        assert_eq!((c.class_wake, c.class_global), (0, 0));
    }

    #[test]
    fn the_transient_path_keeps_the_global_bound() {
        let mut c = WakeCalendar::new(CriticalityModel::default(), 0.5, DT, None);
        c.ensure_len(10);
        c.close_epoch(40.0 * GATED);
        assert!(!c.offer(3, 0.1, true));
        assert_eq!(c.wake[3], c.wake[10 + 3]);
        let wake = c.wake[3];
        c.wake[10 + 3] = 0;
        c.power_on(3, false);
        assert_eq!(c.wake[3], wake, "power-on is no hook on the transient path");
    }
}
