//! Fault injection and detection bookkeeping.
//!
//! Online testing exists to catch **latent permanent faults** — wear-out
//! damage that has already happened but has not yet corrupted an
//! application. The evaluation plants faults at chosen times and measures
//! how long the scheduler takes to find them (detection latency); a test
//! routine detects a fault in its block with probability equal to its
//! structural coverage.

use crate::routine::TestRoutine;
use manytest_power::VfLevel;
use manytest_sim::SimRng;
use serde::{Deserialize, Serialize};

/// A [`Fault::try_with_level_window`] rejection: the observability window
/// was inverted (`from > to`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelWindowInverted {
    /// The lower bound that was supplied.
    pub from: VfLevel,
    /// The upper bound that was supplied.
    pub to: VfLevel,
}

impl std::fmt::Display for LevelWindowInverted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "level window inverted: from {} > to {}",
            self.from.0, self.to.0
        )
    }
}

impl std::error::Error for LevelWindowInverted {}

/// Lifecycle of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultState {
    /// Injected but not yet present (injection time in the future).
    Pending,
    /// Present and undetected.
    Latent,
    /// Found by a test at the recorded time.
    Detected {
        /// When the detecting routine completed, seconds.
        at: f64,
    },
}

/// One injected permanent fault on one core.
///
/// Some wear-out faults are **voltage dependent**: a marginal transistor
/// may only violate timing at near-threshold voltage, or a leakage-induced
/// defect may only misbehave at nominal. `visible_from`/`visible_to`
/// bound the DVFS levels at which a test can observe the fault — this is
/// exactly why the journal version insists tests must "cover all the
/// voltage and frequency levels".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fault {
    /// The faulty core.
    pub core: usize,
    /// When the fault becomes present, seconds.
    pub inject_at: f64,
    /// Current lifecycle state.
    pub state: FaultState,
    /// Lowest DVFS level at which the fault is observable (inclusive).
    pub visible_from: VfLevel,
    /// Highest DVFS level at which the fault is observable (inclusive).
    pub visible_to: VfLevel,
    /// Probability that the fault *manifests* during any one observation
    /// attempt. `1.0` models a solid permanent fault (the original
    /// behaviour); lower values model intermittent wear-out symptoms that
    /// a confirmation retest may fail to reproduce. The effective
    /// per-test detection probability is `coverage * refire`.
    pub refire: f64,
    /// Time after which the fault stops refiring entirely (an
    /// early-life intermittent that burns in, or marginal timing that an
    /// adaptation elsewhere masks). `None` = the fault corrupts and
    /// manifests forever. A cooled fault neither manifests to tests or
    /// probes nor corrupts application work — this is the cool-down the
    /// re-admission lane waits out.
    pub refire_until: Option<f64>,
}

impl Fault {
    /// Creates a solid fault observable at every DVFS level, injected at
    /// `inject_at` seconds.
    pub fn new(core: usize, inject_at: f64) -> Self {
        Fault {
            core,
            inject_at,
            state: FaultState::Pending,
            visible_from: VfLevel(0),
            visible_to: VfLevel(u8::MAX),
            refire: 1.0,
            refire_until: None,
        }
    }

    /// Creates a voltage-dependent fault only observable when the test
    /// runs at a level in `[from, to]`.
    ///
    /// # Errors
    ///
    /// Returns [`LevelWindowInverted`] if `from > to`.
    pub fn try_with_level_window(
        core: usize,
        inject_at: f64,
        from: VfLevel,
        to: VfLevel,
    ) -> Result<Self, LevelWindowInverted> {
        if from > to {
            return Err(LevelWindowInverted { from, to });
        }
        Ok(Fault {
            core,
            inject_at,
            state: FaultState::Pending,
            visible_from: from,
            visible_to: to,
            refire: 1.0,
            refire_until: None,
        })
    }

    /// Panicking convenience form of [`Fault::try_with_level_window`].
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    pub fn with_level_window(core: usize, inject_at: f64, from: VfLevel, to: VfLevel) -> Self {
        Self::try_with_level_window(core, inject_at, from, to)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Sets the per-observation manifestation probability (see
    /// [`Fault::refire`]).
    ///
    /// # Panics
    ///
    /// Panics if `refire` is not a probability in `[0, 1]`.
    pub fn with_refire(mut self, refire: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&refire),
            "refire must be a probability, got {refire}"
        );
        self.refire = refire;
        self
    }

    /// Sets the cool-down time after which the fault stops refiring (see
    /// [`Fault::refire_until`]).
    pub fn with_refire_until(mut self, until: f64) -> Self {
        self.refire_until = Some(until);
        self
    }

    /// True if this fault reproduces on every observation attempt.
    pub fn is_solid(&self) -> bool {
        self.refire >= 1.0
    }

    /// The manifestation probability at `now`: the configured refire, or
    /// zero once the fault has cooled past [`Fault::refire_until`].
    pub fn effective_refire(&self, now: f64) -> f64 {
        match self.refire_until {
            Some(until) if now >= until => 0.0,
            _ => self.refire,
        }
    }

    /// End of this fault's corrupting span (`inject_at` → here), or
    /// `f64::INFINITY` when it never cools.
    pub fn corrupting_until(&self) -> f64 {
        self.refire_until.unwrap_or(f64::INFINITY)
    }

    /// True if a test at `level` can observe this fault at all.
    pub fn visible_at(&self, level: VfLevel) -> bool {
        (self.visible_from..=self.visible_to).contains(&level)
    }

    /// Detection latency (detection time − injection time), if detected.
    pub fn detection_latency(&self) -> Option<f64> {
        match self.state {
            FaultState::Detected { at } => Some((at - self.inject_at).max(0.0)),
            _ => None,
        }
    }
}

/// The set of injected faults and their detection statistics.
///
/// A dense per-core index finds a core's faults in O(1); it holds four
/// bytes per core id up to the highest core a fault was injected on.
///
/// # Examples
///
/// ```
/// use manytest_sbst::fault::{Fault, FaultLog, FaultState};
/// use manytest_sbst::routine::RoutineLibrary;
/// use manytest_sim::SimRng;
///
/// let mut log = FaultLog::new();
/// log.inject_fault(Fault::new(2, 0.010));
/// log.activate_due_with(0.020, |_| {});
/// let lib = RoutineLibrary::standard();
/// let mut rng = SimRng::seed_from(1);
/// // A completed routine on the faulty core may detect it.
/// let level = manytest_power::VfLevel(0);
/// let routine = lib.routine(manytest_sbst::routine::RoutineId(0));
/// let detected = log.on_test_complete_with(2, routine, level, 0.021, &mut rng, |_, _| {});
/// assert_eq!(detected, log.detected_count() == 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultLog {
    faults: Vec<Fault>,
    /// Per-core fault lists. Keeps
    /// [`FaultLog::on_test_complete_with`] from scanning every injected fault
    /// on every test completion; because each core's list preserves the
    /// global injection order, the RNG draw sequence is identical to the
    /// full scan it replaced.
    index: CoreIndex,
    /// Detection *occurrences*: incremented on every detection, never
    /// decremented. [`FaultLog::demote_to_latent`] can return a fault to
    /// `Latent` (a cleared suspect), so this counter — not
    /// [`FaultLog::detected_count`] — reconciles with `FaultDetected`
    /// telemetry events.
    detections: u64,
}

/// One faulty core's entry in the [`CoreIndex`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct CoreFaults {
    /// Indices into `FaultLog::faults`, in injection order.
    faults: Vec<usize>,
}

/// Dense per-core index over the faulty cores: one `u32` per core id up
/// to the highest indexed faulty core (1 + its entry in `cores`, 0 for a
/// core without faults), so a lookup is one bounds-checked load; core
/// ids past its end have no indexed faults. It covers
/// `faults[..indexed]`. Injection only appends the fault, and the next
/// `&mut` call that reads per-core state indexes it, so building a
/// system allocates nothing here.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct CoreIndex {
    slot: Vec<u32>,
    cores: Vec<CoreFaults>,
    indexed: usize,
}

impl CoreIndex {
    /// Appends fault `fault` to `core`'s list.
    fn add(&mut self, core: usize, fault: usize) {
        if core >= self.slot.len() {
            self.slot.resize(core + 1, 0);
        }
        if self.slot[core] == 0 {
            self.cores.push(CoreFaults::default());
            // At most one entry per injected fault.
            self.slot[core] = self.cores.len() as u32;
        }
        self.cores[self.slot[core] as usize - 1].faults.push(fault);
    }

    /// `core`'s entry in `cores`, if it has faults.
    #[inline]
    fn entry_of(&self, core: usize) -> Option<usize> {
        match self.slot.get(core) {
            Some(&slot) if slot != 0 => Some(slot as usize - 1),
            _ => None,
        }
    }

    /// `core`'s entry, if it has faults.
    #[inline]
    fn faults_on(&self, core: usize) -> Option<&CoreFaults> {
        self.entry_of(core).map(|e| &self.cores[e])
    }
}

impl FaultLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_fault(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Indexes every fault injected since the last call.
    fn index_all(&mut self) {
        for i in self.index.indexed..self.faults.len() {
            self.index.add(self.faults[i].core, i);
        }
        self.index.indexed = self.faults.len();
    }

    /// The indices of `core`'s faults in injection order: the indexed
    /// ones, then any injected since the index last caught up.
    fn fault_indices(&self, core: usize) -> impl Iterator<Item = usize> + '_ {
        let indexed = self
            .index
            .faults_on(core)
            .map_or(&[][..], |entry| entry.faults.as_slice());
        let unindexed = (self.index.indexed..self.faults.len())
            .filter(move |&i| self.faults[i].core == core);
        indexed.iter().copied().chain(unindexed)
    }

    /// Schedules an arbitrary pre-built fault (e.g. an intermittent one
    /// built with [`Fault::with_refire`]).
    pub fn inject_fault(&mut self, fault: Fault) {
        self.push_fault(fault);
    }

    /// Promotes pending faults whose injection time has passed to latent;
    /// `on_activate` receives the core of every fault promoted by this
    /// call.
    pub fn activate_due_with(&mut self, now: f64, mut on_activate: impl FnMut(usize)) {
        // The simulator calls this first in every epoch, so its lookups
        // through `&self` find every fault indexed.
        self.index_all();
        for f in &mut self.faults {
            if matches!(f.state, FaultState::Pending) && f.inject_at <= now {
                f.state = FaultState::Latent;
                on_activate(f.core);
            }
        }
    }

    /// Reports a completed `routine` on `core` at DVFS level `level` at
    /// time `now`: every latent fault on that core that is *visible at
    /// that level* is detected with probability `routine.coverage`.
    /// `on_detect` receives `(core, detection_latency_seconds)` for every
    /// fault this run detects. Returns true if at least one fault was
    /// detected by this run.
    pub fn on_test_complete_with(
        &mut self,
        core: usize,
        routine: &TestRoutine,
        level: VfLevel,
        now: f64,
        rng: &mut SimRng,
        mut on_detect: impl FnMut(usize, f64),
    ) -> bool {
        self.index_all();
        let Some(e) = self.index.entry_of(core) else {
            return false;
        };
        let entry = &self.index.cores[e];
        let mut any = false;
        // Indices are in injection order, so the RNG draws happen in the
        // same sequence as the historical whole-log scan (which consumed a
        // draw only for latent, level-visible faults on this core).
        for &i in &entry.faults {
            let f = &mut self.faults[i];
            if matches!(f.state, FaultState::Latent)
                && f.visible_at(level)
                && rng.gen_bool(routine.coverage * f.effective_refire(now))
            {
                f.state = FaultState::Detected { at: now };
                self.detections += 1;
                on_detect(f.core, (now - f.inject_at).max(0.0));
                any = true;
            }
        }
        any
    }

    /// Runs a *confirmation retest* on `core`: draws over every fault on
    /// the core that is latent **or already detected** and visible at
    /// `level`, using the same `coverage * refire` probability as a
    /// regular test. Returns true if any fault manifested.
    ///
    /// Unlike [`FaultLog::on_test_complete_with`], confirmation neither counts
    /// toward [`FaultLog::detections`] nor reports detection telemetry —
    /// it answers one question: *does the symptom reproduce?* A latent
    /// fault that manifests here is promoted to `Detected` (the retest
    /// found it first). Because the draw is taken only over faults
    /// actually present on the core, a fault-free core can never confirm:
    /// false-positive detections always clear.
    pub fn confirm(
        &mut self,
        core: usize,
        routine: &TestRoutine,
        level: VfLevel,
        now: f64,
        rng: &mut SimRng,
    ) -> bool {
        self.index_all();
        let Some(e) = self.index.entry_of(core) else {
            return false;
        };
        let entry = &self.index.cores[e];
        let mut any = false;
        for &i in &entry.faults {
            let f = &mut self.faults[i];
            let present = matches!(f.state, FaultState::Latent | FaultState::Detected { .. });
            if present
                && f.visible_at(level)
                && rng.gen_bool(routine.coverage * f.effective_refire(now))
            {
                if matches!(f.state, FaultState::Latent) {
                    f.state = FaultState::Detected { at: now };
                }
                any = true;
            }
        }
        any
    }

    /// Runs one background re-admission *probe* on `core` at `level`:
    /// draws over every present fault visible at that level with
    /// probability `coverage * effective_refire(now)` — the same physics
    /// as a confirmation retest. A manifest neither promotes fault state
    /// nor counts as a detection: probation failures re-quarantine
    /// without opening a new suspicion. Returns true if any fault manifested.
    pub fn probe(
        &mut self,
        core: usize,
        coverage: f64,
        level: VfLevel,
        now: f64,
        rng: &mut SimRng,
    ) -> bool {
        self.index_all();
        let Some(e) = self.index.entry_of(core) else {
            return false;
        };
        let entry = &self.index.cores[e];
        let mut any = false;
        for &i in &entry.faults {
            let f = &self.faults[i];
            let present = matches!(f.state, FaultState::Latent | FaultState::Detected { .. });
            if present && f.visible_at(level) && rng.gen_bool(coverage * f.effective_refire(now))
            {
                any = true;
            }
        }
        any
    }

    /// Returns every detected fault on `core` to `Latent`, forgetting its
    /// detection time. Called when confirmation retests fail to reproduce
    /// a symptom and the core is cleared back to healthy — the fault (if
    /// any) is still there, still undetected as far as the platform knows.
    pub fn demote_to_latent(&mut self, core: usize) {
        self.index_all();
        if let Some(entry) = self.index.faults_on(core) {
            for &i in &entry.faults {
                let f = &mut self.faults[i];
                if matches!(f.state, FaultState::Detected { .. }) {
                    f.state = FaultState::Latent;
                }
            }
        }
    }

    /// True if `core` carries an active **solid** fault (`refire == 1`)
    /// by `now`. Quarantining a core whose only faults are intermittent
    /// is counted as a *false quarantine* by the degradation report.
    pub fn has_solid_active_fault(&self, core: usize, now: f64) -> bool {
        self.fault_indices(core).any(|i| {
            let f = &self.faults[i];
            f.inject_at <= now && !matches!(f.state, FaultState::Pending) && f.is_solid()
        })
    }

    /// Overlap, in seconds, of the span `[t0, t1]` with the core's
    /// *corrupting* spans — the union over its activated faults of
    /// `[inject_at, refire_until)`. This is what the exposure accrual
    /// charges: work on a core whose faults have all cooled is safe.
    ///
    /// Up to 8 faults per core are merged exactly (zero allocations);
    /// beyond that the convex hull is used, which can only over-count —
    /// the conservative direction for an exposure metric.
    #[inline]
    pub fn corrupting_overlap(&self, core: usize, t0: f64, t1: f64) -> f64 {
        // Most cores carry no fault: answer them without a call.
        if self.index.entry_of(core).is_none() && self.index.indexed == self.faults.len() {
            return 0.0;
        }
        self.merged_overlap(core, t0, t1)
    }

    /// [`FaultLog::corrupting_overlap`] past the no-fault check.
    fn merged_overlap(&self, core: usize, t0: f64, t1: f64) -> f64 {
        let mut spans = [(0.0f64, 0.0f64); 8];
        let mut n = 0usize;
        let (mut hull_lo, mut hull_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in self.fault_indices(core) {
            let f = &self.faults[i];
            let lo = f.inject_at.max(t0);
            let hi = f.corrupting_until().min(t1);
            if lo >= hi {
                continue;
            }
            hull_lo = hull_lo.min(lo);
            hull_hi = hull_hi.max(hi);
            if n < spans.len() {
                spans[n] = (lo, hi);
                n += 1;
            } else {
                // Too many faults to merge exactly: fall back to the hull.
                return (hull_hi - hull_lo).max(0.0);
            }
        }
        if n == 0 {
            return 0.0;
        }
        spans[..n].sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut total = 0.0;
        let (mut cur_lo, mut cur_hi) = spans[0];
        for &(lo, hi) in &spans[1..n] {
            if lo <= cur_hi {
                cur_hi = cur_hi.max(hi);
            } else {
                total += cur_hi - cur_lo;
                (cur_lo, cur_hi) = (lo, hi);
            }
        }
        total + (cur_hi - cur_lo)
    }

    /// Total detection occurrences (see the field doc on why this can
    /// exceed [`FaultLog::detected_count`]).
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| matches!(f.state, FaultState::Detected { .. }))
            .count()
    }

    /// Mean detection latency over detected faults, seconds.
    pub fn mean_detection_latency(&self) -> Option<f64> {
        let latencies: Vec<f64> = self
            .faults
            .iter()
            .filter_map(Fault::detection_latency)
            .collect();
        if latencies.is_empty() {
            None
        } else {
            Some(latencies.iter().sum::<f64>() / latencies.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routine::RoutineLibrary;

    use crate::routine::RoutineId;

    fn routine() -> TestRoutine {
        RoutineLibrary::standard().routine(RoutineId(0)).clone()
    }

    fn certain_routine() -> TestRoutine {
        TestRoutine::new("perfect", 1_000, 0.8, 1.0)
    }

    #[test]
    fn lifecycle_pending_latent_detected() {
        let mut log = FaultLog::new();
        log.inject_fault(Fault::new(0, 1.0));
        assert!(matches!(log.faults[0].state, FaultState::Pending));
        log.activate_due_with(0.5, |_| {});
        assert!(matches!(log.faults[0].state, FaultState::Pending));
        log.activate_due_with(1.0, |_| {});
        assert!(matches!(log.faults[0].state, FaultState::Latent));
        let mut rng = SimRng::seed_from(1);
        let hit =
            log.on_test_complete_with(0, &certain_routine(), VfLevel(0), 2.5, &mut rng, |_, _| {});
        assert!(hit);
        assert_eq!(log.detected_count(), 1);
        assert_eq!(log.faults[0].detection_latency(), Some(1.5));
    }

    #[test]
    fn tests_on_other_cores_do_not_detect() {
        let mut log = FaultLog::new();
        log.inject_fault(Fault::new(3, 0.0));
        log.activate_due_with(1.0, |_| {});
        let mut rng = SimRng::seed_from(2);
        assert!(!log.on_test_complete_with(
            4,
            &certain_routine(),
            VfLevel(0),
            2.0,
            &mut rng,
            |_, _| {}
        ));
        assert_eq!(log.len() - log.detected_count(), 1);
    }

    #[test]
    fn pending_faults_are_not_detectable() {
        let mut log = FaultLog::new();
        log.inject_fault(Fault::new(0, 10.0));
        let mut rng = SimRng::seed_from(3);
        assert!(!log.on_test_complete_with(
            0,
            &certain_routine(),
            VfLevel(0),
            1.0,
            &mut rng,
            |_, _| {}
        ));
        assert_eq!(log.detected_count(), 0);
    }

    #[test]
    fn detection_is_probabilistic_with_partial_coverage() {
        // coverage 0.95 over many trials: most but not all single attempts
        // succeed.
        let mut hits = 0;
        for seed in 0..200 {
            let mut log = FaultLog::new();
            log.inject_fault(Fault::new(0, 0.0));
            log.activate_due_with(0.0, |_| {});
            let mut rng = SimRng::seed_from(seed);
            if log.on_test_complete_with(0, &routine(), VfLevel(0), 1.0, &mut rng, |_, _| {}) {
                hits += 1;
            }
        }
        assert!((170..=200).contains(&hits), "hits = {hits}");
        assert!(hits < 200 || routine().coverage == 1.0);
    }

    #[test]
    fn latency_statistics() {
        let mut log = FaultLog::new();
        log.inject_fault(Fault::new(0, 0.0));
        log.inject_fault(Fault::new(1, 0.0));
        log.activate_due_with(0.0, |_| {});
        let mut rng = SimRng::seed_from(4);
        log.on_test_complete_with(0, &certain_routine(), VfLevel(0), 1.0, &mut rng, |_, _| {});
        log.on_test_complete_with(1, &certain_routine(), VfLevel(0), 3.0, &mut rng, |_, _| {});
        assert_eq!(log.mean_detection_latency(), Some(2.0));
    }

    #[test]
    fn empty_log_statistics() {
        let log = FaultLog::new();
        assert!(log.is_empty());
        assert_eq!(log.mean_detection_latency(), None);
        assert_eq!(log.detected_count(), 0);
    }

    #[test]
    fn level_window_gates_detection() {
        let mut log = FaultLog::new();
        // Observable only at levels 0..=1 (a near-threshold-only fault).
        log.inject_fault(Fault::with_level_window(0, 0.0, VfLevel(0), VfLevel(1)));
        log.activate_due_with(0.0, |_| {});
        let mut rng = SimRng::seed_from(9);
        // Testing at nominal (level 4) cannot see it.
        assert!(!log.on_test_complete_with(
            0,
            &certain_routine(),
            VfLevel(4),
            1.0,
            &mut rng,
            |_, _| {}
        ));
        assert_eq!(log.len() - log.detected_count(), 1);
        // Testing inside the window catches it.
        assert!(log.on_test_complete_with(
            0,
            &certain_routine(),
            VfLevel(1),
            2.0,
            &mut rng,
            |_, _| {}
        ));
        assert_eq!(log.detected_count(), 1);
    }

    #[test]
    fn unwindowed_faults_are_visible_everywhere() {
        let f = Fault::new(3, 0.0);
        for level in 0..=10u8 {
            assert!(f.visible_at(VfLevel(level)));
        }
    }

    #[test]
    #[should_panic(expected = "window inverted")]
    fn inverted_window_panics() {
        Fault::with_level_window(0, 0.0, VfLevel(3), VfLevel(1));
    }

    #[test]
    fn telemetry_hooks_see_activations_and_detections() {
        let mut log = FaultLog::new();
        log.inject_fault(Fault::new(2, 1.0));
        log.inject_fault(Fault::new(5, 3.0));
        let mut activated = Vec::new();
        log.activate_due_with(2.0, |core| activated.push(core));
        assert_eq!(activated, vec![2], "only the due fault activates");
        let mut rng = SimRng::seed_from(6);
        let mut detections = Vec::new();
        let hit = log.on_test_complete_with(
            2,
            &certain_routine(),
            VfLevel(0),
            4.5,
            &mut rng,
            |core, latency| detections.push((core, latency)),
        );
        assert!(hit);
        assert_eq!(detections, vec![(2, 3.5)]);
    }

    /// The historical implementation of `on_test_complete_with`: a scan
    /// over *every* injected fault. Kept verbatim (modulo the refire
    /// factor, which is 1.0 for all faults in this test) as the reference
    /// for the determinism proof below.
    fn reference_full_scan(
        faults: &mut [Fault],
        core: usize,
        routine: &TestRoutine,
        level: VfLevel,
        now: f64,
        rng: &mut SimRng,
    ) -> bool {
        let mut any = false;
        for f in faults.iter_mut() {
            if f.core == core
                && matches!(f.state, FaultState::Latent)
                && f.visible_at(level)
                && rng.gen_bool(routine.coverage * f.refire)
            {
                f.state = FaultState::Detected { at: now };
                any = true;
            }
        }
        any
    }

    #[test]
    fn indexed_scan_preserves_rng_draw_order_of_full_scan() {
        // Many faults spread over a few cores, tested in an interleaved
        // order: the per-core index must consume exactly the same RNG
        // draws as the whole-log scan, leaving both the fault states and
        // the *downstream* RNG stream identical.
        let plan: Vec<(usize, f64)> = (0..24).map(|i| (i % 5, 0.001 * i as f64)).collect();
        let mut indexed = FaultLog::new();
        let mut reference: Vec<Fault> = Vec::new();
        for &(core, at) in &plan {
            indexed.inject_fault(Fault::new(core, at));
            reference.push(Fault::new(core, at));
        }
        indexed.activate_due_with(1.0, |_| {});
        for f in &mut reference {
            f.state = FaultState::Latent;
        }
        let r = routine(); // partial coverage: draws actually matter
        let mut rng_a = SimRng::seed_from(42);
        let mut rng_b = SimRng::seed_from(42);
        for step in 0..40 {
            let core = (step * 3) % 5;
            let level = VfLevel((step % 3) as u8);
            let now = 2.0 + step as f64;
            let a = indexed.on_test_complete_with(core, &r, level, now, &mut rng_a, |_, _| {});
            let b = reference_full_scan(&mut reference, core, &r, level, now, &mut rng_b);
            assert_eq!(a, b, "outcome diverged at step {step}");
        }
        assert_eq!(indexed.faults, reference.as_slice(), "fault states diverged");
        for i in 0..16 {
            assert_eq!(rng_a.next_f64(), rng_b.next_f64(), "RNG stream diverged at draw {i}");
        }
    }

    #[test]
    fn try_with_level_window_rejects_inverted_windows() {
        let err = Fault::try_with_level_window(0, 0.0, VfLevel(3), VfLevel(1)).unwrap_err();
        assert_eq!(err, LevelWindowInverted { from: VfLevel(3), to: VfLevel(1) });
        assert!(err.to_string().contains("level window inverted"));
        assert!(Fault::try_with_level_window(0, 0.0, VfLevel(1), VfLevel(1)).is_ok());
    }

    #[test]
    fn intermittent_faults_dodge_some_observations() {
        // refire 0.0: the fault never manifests, even to a perfect routine.
        let mut log = FaultLog::new();
        log.inject_fault(Fault::new(0, 0.0).with_refire(0.0));
        log.activate_due_with(0.0, |_| {});
        let mut rng = SimRng::seed_from(7);
        for step in 0..20 {
            assert!(!log.on_test_complete_with(
                0,
                &certain_routine(),
                VfLevel(0),
                1.0 + step as f64,
                &mut rng,
                |_, _| {}
            ));
        }
        assert_eq!(log.len() - log.detected_count(), 1);
    }

    #[test]
    fn confirm_reproduces_solid_faults_and_never_fires_on_clean_cores() {
        let mut log = FaultLog::new();
        log.inject_fault(Fault::new(2, 0.0));
        log.activate_due_with(0.0, |_| {});
        let mut rng = SimRng::seed_from(8);
        // Detected by a normal test, then confirmed by a retest.
        assert!(log.on_test_complete_with(
            2,
            &certain_routine(),
            VfLevel(0),
            1.0,
            &mut rng,
            |_, _| {}
        ));
        assert!(log.confirm(2, &certain_routine(), VfLevel(0), 1.5, &mut rng));
        // A fault-free core cannot confirm, no matter the routine or seed.
        assert!(!log.confirm(3, &certain_routine(), VfLevel(0), 1.5, &mut rng));
        assert_eq!(log.detections(), 1, "confirmation is not a new detection");
    }

    #[test]
    fn demote_returns_detected_faults_to_latent_but_keeps_the_occurrence_count() {
        let mut log = FaultLog::new();
        log.inject_fault(Fault::new(1, 0.0));
        log.activate_due_with(0.0, |_| {});
        let mut rng = SimRng::seed_from(9);
        assert!(log.on_test_complete_with(
            1,
            &certain_routine(),
            VfLevel(0),
            1.0,
            &mut rng,
            |_, _| {}
        ));
        assert_eq!((log.detected_count(), log.detections()), (1, 1));
        log.demote_to_latent(1);
        assert_eq!(log.detected_count(), 0);
        assert_eq!(log.len() - log.detected_count(), 1);
        assert_eq!(log.detections(), 1, "occurrences survive the demotion");
        // The fault can be re-detected later — a second occurrence.
        assert!(log.on_test_complete_with(
            1,
            &certain_routine(),
            VfLevel(0),
            2.0,
            &mut rng,
            |_, _| {}
        ));
        assert_eq!(log.detections(), 2);
    }

    #[test]
    fn active_fault_queries_respect_time_and_solidity() {
        let mut log = FaultLog::new();
        log.inject_fault(Fault::new(0, 5.0));
        log.inject_fault(Fault::new(1, 0.0).with_refire(0.3));
        log.activate_due_with(1.0, |_| {});
        assert!(!log.has_solid_active_fault(0, 1.0), "not yet activated");
        assert!(!log.has_solid_active_fault(1, 1.0), "intermittent is not solid");
        log.activate_due_with(6.0, |_| {});
        assert!(log.has_solid_active_fault(0, 6.0));
    }

    #[test]
    fn cooled_faults_stop_manifesting_and_probes_track_the_clock() {
        let mut log = FaultLog::new();
        // An intermittent that burns in at t = 5.0.
        log.inject_fault(Fault::new(0, 0.0).with_refire(1.0).with_refire_until(5.0));
        log.activate_due_with(0.0, |_| {});
        let mut rng = SimRng::seed_from(11);
        // Before the cool-down it manifests to probes (coverage 1).
        assert!(log.probe(0, 1.0, VfLevel(0), 1.0, &mut rng));
        assert_eq!(log.detections(), 0, "probes are not detections");
        assert_eq!(log.detected_count(), 0, "probes do not promote state");
        // After the cool-down it never manifests again, to probes or tests.
        for step in 0..20 {
            let t = 5.0 + step as f64;
            assert!(!log.probe(0, 1.0, VfLevel(0), t, &mut rng));
            assert!(!log.on_test_complete_with(
                0,
                &certain_routine(),
                VfLevel(0),
                t,
                &mut rng,
                |_, _| {}
            ));
        }
        assert_eq!(log.len() - log.detected_count(), 1);
    }

    #[test]
    fn probes_on_clean_cores_never_manifest() {
        let mut log = FaultLog::new();
        log.inject_fault(Fault::new(2, 0.0));
        log.activate_due_with(0.0, |_| {});
        let mut rng = SimRng::seed_from(12);
        assert!(!log.probe(5, 1.0, VfLevel(0), 1.0, &mut rng));
    }

    #[test]
    fn corrupting_overlap_respects_cool_down_and_merges_spans() {
        let mut log = FaultLog::new();
        // Two disjoint corrupting spans on core 0: [1, 2) and [5, 7).
        log.inject_fault(Fault::new(0, 1.0).with_refire_until(2.0));
        log.inject_fault(Fault::new(0, 5.0).with_refire_until(7.0));
        // One eternal fault on core 1.
        log.inject_fault(Fault::new(1, 3.0));
        assert!((log.corrupting_overlap(0, 0.0, 10.0) - 3.0).abs() < 1e-12);
        assert!((log.corrupting_overlap(0, 1.5, 5.5) - 1.0).abs() < 1e-12);
        assert_eq!(log.corrupting_overlap(0, 2.0, 5.0), 0.0);
        assert!((log.corrupting_overlap(1, 0.0, 10.0) - 7.0).abs() < 1e-12);
        assert_eq!(log.corrupting_overlap(9, 0.0, 10.0), 0.0);
        // Overlapping spans merge rather than double-count.
        let mut log = FaultLog::new();
        log.inject_fault(Fault::new(0, 1.0).with_refire_until(4.0));
        log.inject_fault(Fault::new(0, 2.0).with_refire_until(6.0));
        assert!((log.corrupting_overlap(0, 0.0, 10.0) - 5.0).abs() < 1e-12);
    }

    /// The per-core index the dense one replaced: fault lists in a map
    /// keyed by core. Kept as the oracle for
    /// `dense_index_matches_map_index`.
    #[derive(Default)]
    struct MapIndex {
        by_core: std::collections::BTreeMap<usize, Vec<usize>>,
    }

    /// Random injections (windowed, intermittent and cooling faults on
    /// scattered cores, interleaved with the run) and random tests,
    /// retests, probes and demotions: after every step each core's
    /// faults in injection order (indexed, then not yet indexed) equal
    /// the map index's, and so does the dense
    /// index itself whenever it has caught up, for faulty cores, clean
    /// cores and ids past the index.
    #[test]
    fn dense_index_matches_map_index() {
        let mut rng = SimRng::seed_from(0xfa17);
        for round in 0..20 {
            let cores = 1 + rng.gen_range(40) as usize;
            let mut log = FaultLog::new();
            let mut map = MapIndex::default();
            let mut draws = SimRng::seed_from(round);
            for step in 0..300 {
                let now = step as f64 * 0.01;
                let core = rng.gen_range(cores as u64) as usize;
                let level = VfLevel(rng.gen_range(4) as u8);
                match rng.gen_range(8) {
                    0 | 1 => {
                        let at = now + rng.next_f64();
                        let mut fault = if rng.gen_bool(0.3) {
                            Fault::with_level_window(core, at, level, level)
                        } else {
                            Fault::new(core, at)
                        };
                        if rng.gen_bool(0.4) {
                            fault = fault
                                .with_refire(0.35)
                                .with_refire_until(at + rng.next_f64());
                        }
                        map.by_core.entry(core).or_default().push(log.len());
                        log.inject_fault(fault);
                    }
                    2 => log.activate_due_with(now, |_| {}),
                    3 => {
                        log.on_test_complete_with(
                            core,
                            &routine(),
                            level,
                            now,
                            &mut draws,
                            |_, _| {},
                        );
                    }
                    4 => {
                        log.confirm(core, &routine(), level, now, &mut draws);
                    }
                    5 => {
                        log.probe(core, 0.9, level, now, &mut draws);
                    }
                    6 => log.demote_to_latent(core),
                    _ => {
                        log.corrupting_overlap(core, now - 0.5, now);
                    }
                }
                for c in 0..cores + 3 {
                    let expected = map.by_core.get(&c).cloned().unwrap_or_default();
                    assert_eq!(
                        log.fault_indices(c).collect::<Vec<_>>(),
                        expected,
                        "round {round} step {step} core {c}"
                    );
                    if log.index.indexed == log.len() {
                        assert_eq!(
                            log.index.faults_on(c).map(|e| e.faults.clone()),
                            map.by_core.get(&c).cloned(),
                            "round {round} step {step} core {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn already_detected_faults_stay_detected() {
        let mut log = FaultLog::new();
        log.inject_fault(Fault::new(0, 0.0));
        log.activate_due_with(0.0, |_| {});
        let mut rng = SimRng::seed_from(5);
        log.on_test_complete_with(0, &certain_routine(), VfLevel(0), 1.0, &mut rng, |_, _| {});
        log.on_test_complete_with(0, &certain_routine(), VfLevel(0), 9.0, &mut rng, |_, _| {});
        assert_eq!(log.faults[0].detection_latency(), Some(1.0));
    }
}
