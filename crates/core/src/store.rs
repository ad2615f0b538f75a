//! Struct-of-arrays storage for hot per-core control-loop state.
//!
//! The control loop touches every core each epoch (power accounting,
//! criticality ranking, mapping, test scheduling, thermal relaxation).
//! With an array-of-structs `Vec<CoreSlot>` each phase drags whole slots
//! through the cache to read one field; [`CoreStore`] splits the slot
//! into parallel flat arrays so each phase streams only the arrays it
//! needs, and maintains the derived views those phases used to recompute
//! by full scans:
//!
//! - `mappable_count` — cores with no owner and not quarantined; the
//!   mapper's admission gate reads this in O(1) instead of filtering all
//!   cores per pending application.
//! - `testing_count` — cores with a live test session; epoch traces and
//!   run finalisation read it in O(1).
//! - `testable` bitset — cores the test scheduler may rank (no session,
//!   not `Busy`/`Testing`); the scheduler walks set bits in ascending
//!   core order instead of scanning every slot.
//! - `powered` bitset — cores not `CoreMode::Off`; the epoch close
//!   charges only these, since a gated core draws exactly 0 W.
//!
//! A generation/dirty-set scheme stamps which cores changed policy-
//! relevant state (mode, owner, session, health) since the last epoch
//! boundary: every mutator funnels through `CoreStore::mark_dirty`,
//! and [`CoreStore::advance_generation`] opens a fresh epoch without
//! touching the per-core stamps (the stamp comparison makes old marks
//! stale implicitly). Consumers that cache per-core derived data can
//! refresh only `dirty_cores()` instead of rescanning the mesh.
//!
//! Every view is maintained incrementally and must stay equal to a from-
//! scratch rebuild; [`CoreStore::rebuild_views`] computes the latter and
//! the property tests in `tests/store_consistency.rs` drive randomized
//! mutation sequences against it.

use crate::exec::CoreMode;
use manytest_power::Reservation;
use manytest_sbst::TestSession;
use manytest_workload::{AppId, TaskId};

/// Bits per word of the `testable` and `powered` bitsets.
const WORD_BITS: usize = u64::BITS as usize;

/// Hot per-core state as parallel flat arrays, plus incrementally
/// maintained derived views and a generation/dirty-set.
///
/// Indexing any accessor with `core >= len()` panics, as slicing a
/// `Vec<CoreSlot>` out of range always did; core ids come from the mesh
/// and are validated at construction time.
///
/// # Examples
///
/// ```
/// use manytest_core::exec::CoreMode;
/// use manytest_core::store::CoreStore;
///
/// let mut store = CoreStore::new(4);
/// assert_eq!(store.mappable_count(), 4);
/// assert!(store.is_test_candidate(0));
/// store.set_quarantined(1);
/// assert_eq!(store.mappable_count(), 3);
/// ```
#[derive(Debug)]
pub struct CoreStore {
    // --- hot parallel arrays (one entry per core, dense id order) ---
    mode: Vec<CoreMode>,
    accrued_since: Vec<f64>,
    owner: Vec<Option<(AppId, TaskId)>>,
    session: Vec<Option<TestSession>>,
    session_reservation: Vec<Option<Reservation>>,
    session_gen: Vec<u64>,
    /// Health mirror: `false` once quarantined. The `HealthBoard` stays
    /// the source of truth for suspect/retest detail; this bit exists so
    /// the mappable count updates without consulting another crate.
    healthy: Vec<bool>,
    // --- maintained derived views ---
    mappable: usize,
    testing: usize,
    /// The `testable` bitset, then the `powered` one, `words` each: one
    /// allocation for both.
    bitsets: Vec<u64>,
    words: usize,
    // --- generation / dirty set ---
    generation: u64,
    dirty_stamp: Vec<u64>,
    dirty: Vec<u32>,
    dirty_marks: u64,
}

/// Snapshot of the derived views, for consistency checking: the
/// maintained copy ([`CoreStore::current_views`]) must always equal the
/// from-scratch rebuild ([`CoreStore::rebuild_views`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreViews {
    /// Cores with no owner and not quarantined.
    pub mappable: usize,
    /// Cores with a live test session.
    pub testing: usize,
    /// Bitset of test-candidate cores (no session, not busy/testing).
    pub testable: Vec<u64>,
    /// Bitset of cores not `CoreMode::Off`.
    pub powered: Vec<u64>,
}

impl CoreStore {
    /// A store of `n` fresh cores: power-gated, unowned, healthy, and
    /// test candidates.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(WORD_BITS);
        let mut bitsets = vec![0; 2 * words];
        bitsets[..words].fill(u64::MAX);
        Self::clear_tail_bits(&mut bitsets[..words], n);
        CoreStore {
            mode: vec![CoreMode::Off; n],
            accrued_since: vec![0.0; n],
            owner: vec![None; n],
            session: vec![None; n],
            session_reservation: vec![None; n],
            session_gen: vec![0; n],
            healthy: vec![true; n],
            mappable: n,
            testing: 0,
            bitsets,
            words,
            generation: 1,
            dirty_stamp: vec![0; n],
            dirty: Vec::new(),
            dirty_marks: 0,
        }
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.mode.len()
    }

    /// True for an empty platform (degenerate, but keeps clippy honest).
    pub fn is_empty(&self) -> bool {
        self.mode.is_empty()
    }

    // --- mode ---

    /// Current mode of `core`.
    pub fn mode(&self, core: usize) -> CoreMode {
        self.mode[core]
    }

    /// Sets the mode of `core`, updating the testable and powered views
    /// and the dirty set.
    #[inline]
    pub fn set_mode(&mut self, core: usize, mode: CoreMode) {
        self.mode[core] = mode;
        self.refresh_testable(core);
        let word = self.words + core / WORD_BITS;
        let bit = 1u64 << (core % WORD_BITS);
        if matches!(mode, CoreMode::Off) {
            self.bitsets[word] &= !bit;
        } else {
            self.bitsets[word] |= bit;
        }
        self.mark_dirty(core);
    }

    // --- accounting timestamp (not policy state: no dirty mark) ---

    /// Start of the unaccounted span on `core`, seconds.
    pub fn accrued_since(&self, core: usize) -> f64 {
        self.accrued_since[core]
    }

    /// Moves the accounting watermark of `core` to `now`.
    pub fn set_accrued_since(&mut self, core: usize, now: f64) {
        self.accrued_since[core] = now;
    }

    // --- ownership ---

    /// Owning application and task of `core`, if allocated.
    pub fn owner(&self, core: usize) -> Option<(AppId, TaskId)> {
        self.owner[core]
    }

    /// Sets or clears the owner of `core`, maintaining the mappable
    /// count.
    #[inline]
    pub fn set_owner(&mut self, core: usize, owner: Option<(AppId, TaskId)>) {
        let was = self.owner[core].is_none() && self.healthy[core];
        self.owner[core] = owner;
        let is = self.owner[core].is_none() && self.healthy[core];
        match (was, is) {
            (true, false) => self.mappable -= 1,
            (false, true) => self.mappable += 1,
            _ => {}
        }
        self.mark_dirty(core);
    }

    // --- health mirror ---

    /// Whether `core` is still healthy (not quarantined).
    pub fn is_healthy(&self, core: usize) -> bool {
        self.healthy[core]
    }

    /// Marks `core` quarantined, removing it from the mappable set.
    pub fn set_quarantined(&mut self, core: usize) {
        self.set_healthy(core, false);
    }

    /// Sets the health bit of `core`, maintaining the mappable count.
    pub fn set_healthy(&mut self, core: usize, healthy: bool) {
        let was = self.owner[core].is_none() && self.healthy[core];
        self.healthy[core] = healthy;
        let is = self.owner[core].is_none() && self.healthy[core];
        match (was, is) {
            (true, false) => self.mappable -= 1,
            (false, true) => self.mappable += 1,
            _ => {}
        }
        self.mark_dirty(core);
    }

    // --- sessions ---

    /// Whether `core` has a live test session.
    pub fn has_session(&self, core: usize) -> bool {
        self.session[core].is_some()
    }

    /// Copy of the live session on `core`, if any.
    pub fn session(&self, core: usize) -> Option<TestSession> {
        self.session[core]
    }

    /// Session generation of `core` (stale-event filtering).
    pub fn session_gen(&self, core: usize) -> u64 {
        self.session_gen[core]
    }

    /// Installs a session plus its backing reservation on `core` and
    /// returns the generation that identifies it. The caller must have
    /// checked there is no live session.
    #[inline]
    pub fn begin_session(
        &mut self,
        core: usize,
        session: TestSession,
        reservation: Reservation,
    ) -> u64 {
        debug_assert!(self.session[core].is_none(), "core already under test");
        self.session[core] = Some(session);
        self.session_reservation[core] = Some(reservation);
        self.testing += 1;
        self.refresh_testable(core);
        self.mark_dirty(core);
        self.session_gen[core]
    }

    /// Removes the session (complete or aborted) from `core`, bumping
    /// the generation so in-flight finish events for it become stale.
    /// Returns the session and its reservation; both are `None` when no
    /// session was live (the generation is then left untouched, exactly
    /// like the pre-SoA early-return path).
    #[inline]
    pub fn end_session(&mut self, core: usize) -> (Option<TestSession>, Option<Reservation>) {
        let session = self.session[core].take();
        let reservation = self.session_reservation[core].take();
        if session.is_some() {
            self.session_gen[core] += 1;
            self.testing -= 1;
            self.refresh_testable(core);
            self.mark_dirty(core);
        }
        (session, reservation)
    }

    // --- derived predicates (same definitions CoreSlot carried) ---

    /// True if the core may be offered to the test scheduler: it is not
    /// executing a task and not already under test.
    pub fn is_test_candidate(&self, core: usize) -> bool {
        self.session[core].is_none()
            && !matches!(self.mode[core], CoreMode::Busy(_) | CoreMode::Testing(..))
    }

    /// True if the runtime mapper may allocate this core (quarantine is
    /// layered on separately, as it always was).
    pub fn is_free_for_mapping(&self, core: usize) -> bool {
        self.owner[core].is_none()
    }

    // --- maintained views ---

    /// Cores with no owner and not quarantined, O(1).
    pub fn mappable_count(&self) -> usize {
        self.mappable
    }

    /// Cores with a live test session, O(1).
    pub fn testing_count(&self) -> usize {
        self.testing
    }

    /// The test-candidate bitset, one bit per core, LSB-first within
    /// each word. Walking words and `trailing_zeros` visits candidates
    /// in ascending core order — the same order the old full scan
    /// produced.
    pub fn testable_words(&self) -> &[u64] {
        &self.bitsets[..self.words]
    }

    /// Calls `f(core)` for every test candidate, ascending core order.
    pub fn for_each_testable(&self, f: impl FnMut(usize)) {
        Self::for_each_set_bit(self.testable_words(), f);
    }

    /// The powered-core bitset (cores not `CoreMode::Off`), laid out
    /// like [`CoreStore::testable_words`].
    pub fn powered_words(&self) -> &[u64] {
        &self.bitsets[self.words..]
    }

    /// Calls `f(core)` for every powered core, ascending core order.
    pub fn for_each_powered(&self, f: impl FnMut(usize)) {
        Self::for_each_set_bit(self.powered_words(), f);
    }

    fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                f(w * WORD_BITS + b);
                bits &= bits - 1;
            }
        }
    }

    // --- generation / dirty set ---

    /// The current epoch generation (starts at 1).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cores whose policy state changed since the last
    /// [`CoreStore::advance_generation`], in first-touch order, each at
    /// most once.
    pub fn dirty_cores(&self) -> &[u32] {
        &self.dirty
    }

    /// Total dirty-set insertions over the run (a deterministic decision
    /// counter: re-marking an already-dirty core does not count).
    pub fn dirty_marks(&self) -> u64 {
        self.dirty_marks
    }

    /// Closes the epoch: clears the dirty list and bumps the generation
    /// so stale stamps age out implicitly (no per-core work).
    pub fn advance_generation(&mut self) {
        debug_assert!(self.views_consistent(), "maintained views drifted from a rebuild");
        self.dirty.clear();
        self.generation += 1;
    }

    #[inline]
    fn mark_dirty(&mut self, core: usize) {
        if self.dirty_stamp[core] != self.generation {
            self.dirty_stamp[core] = self.generation;
            self.dirty.push(core as u32);
            self.dirty_marks += 1;
        }
    }

    #[inline]
    fn refresh_testable(&mut self, core: usize) {
        let word = core / WORD_BITS;
        let bit = 1u64 << (core % WORD_BITS);
        if self.is_test_candidate(core) {
            self.bitsets[word] |= bit;
        } else {
            self.bitsets[word] &= !bit;
        }
    }

    fn clear_tail_bits(words: &mut [u64], n: usize) {
        let tail = n % WORD_BITS;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    // --- consistency checking ---

    /// The maintained derived views, cloned.
    // lint:effect(alloc, reason = "consistency-audit path: copies the maintained views out to compare them with a from-scratch rebuild")
    pub fn current_views(&self) -> StoreViews {
        StoreViews {
            mappable: self.mappable,
            testing: self.testing,
            testable: self.testable_words().to_vec(),
            powered: self.powered_words().to_vec(),
        }
    }

    /// The derived views recomputed from scratch off the flat arrays.
    // lint:effect(alloc, reason = "consistency-audit path: the from-scratch recompute exists to cross-check the incremental views, not to serve the steady state")
    pub fn rebuild_views(&self) -> StoreViews {
        let n = self.len();
        let mut testable = vec![0u64; n.div_ceil(WORD_BITS)];
        let mut powered = testable.clone();
        let mut mappable = 0;
        let mut testing = 0;
        for core in 0..n {
            if self.owner[core].is_none() && self.healthy[core] {
                mappable += 1;
            }
            if self.session[core].is_some() {
                testing += 1;
            }
            let bit = 1u64 << (core % WORD_BITS);
            if self.is_test_candidate(core) {
                testable[core / WORD_BITS] |= bit;
            }
            if !matches!(self.mode[core], CoreMode::Off) {
                powered[core / WORD_BITS] |= bit;
            }
        }
        StoreViews {
            mappable,
            testing,
            testable,
            powered,
        }
    }

    /// True while the maintained views match a from-scratch rebuild.
    pub fn views_consistent(&self) -> bool {
        self.rebuild_views() == self.current_views()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manytest_power::{OperatingPoint, PowerBudget, TechNode, VfLadder, VfLevel};
    use manytest_sbst::RoutineId;

    fn ladder_op() -> OperatingPoint {
        VfLadder::for_node(TechNode::N16, 5).max()
    }

    fn session_at(core: usize) -> TestSession {
        TestSession::new(core, RoutineId(0), VfLevel(0), 100, 1.0e9, 0.0)
    }

    fn reservation() -> Reservation {
        PowerBudget::new(10.0).reserve(1.0).unwrap()
    }

    #[test]
    fn fresh_cores_are_dark_mappable_test_candidates() {
        let store = CoreStore::new(5);
        assert_eq!(store.len(), 5);
        assert_eq!(store.mappable_count(), 5);
        assert_eq!(store.testing_count(), 0);
        for core in 0..5 {
            assert_eq!(store.mode(core), CoreMode::Off);
            assert!(store.is_test_candidate(core));
            assert!(store.is_free_for_mapping(core));
        }
        let mut seen = Vec::new();
        store.for_each_testable(|c| seen.push(c));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn busy_core_is_neither_testable_nor_free() {
        let mut store = CoreStore::new(2);
        store.set_owner(0, Some((AppId(1), TaskId(0))));
        store.set_mode(0, CoreMode::Busy(ladder_op()));
        assert!(!store.is_test_candidate(0));
        assert!(!store.is_free_for_mapping(0));
        assert_eq!(store.mappable_count(), 1);
        let mut seen = Vec::new();
        store.for_each_testable(|c| seen.push(c));
        assert_eq!(seen, vec![1]);
    }

    #[test]
    fn allocated_idle_core_is_testable_but_not_free() {
        let mut store = CoreStore::new(2);
        store.set_owner(1, Some((AppId(1), TaskId(0))));
        store.set_mode(1, CoreMode::Idle(ladder_op()));
        assert!(store.is_test_candidate(1));
        assert!(!store.is_free_for_mapping(1));
        assert_eq!(store.mappable_count(), 1);
    }

    #[test]
    fn session_lifecycle_maintains_views_and_generation() {
        let mut store = CoreStore::new(3);
        let gen = store.begin_session(1, session_at(1), reservation());
        store.set_mode(1, CoreMode::Testing(ladder_op(), 0.8));
        assert_eq!(gen, 0);
        assert_eq!(store.testing_count(), 1);
        assert!(!store.is_test_candidate(1));
        assert!(
            store.is_free_for_mapping(1),
            "dark core under test stays mappable"
        );
        let (session, res) = store.end_session(1);
        assert!(session.is_some() && res.is_some());
        assert_eq!(store.session_gen(1), 1, "ending a session bumps the generation");
        assert_eq!(store.testing_count(), 0);
        // A second end is a no-op and must not bump the generation.
        let (none_s, none_r) = store.end_session(1);
        assert!(none_s.is_none() && none_r.is_none());
        assert_eq!(store.session_gen(1), 1);
    }

    #[test]
    fn quarantine_removes_core_from_mappable_once() {
        let mut store = CoreStore::new(4);
        store.set_quarantined(2);
        assert_eq!(store.mappable_count(), 3);
        assert!(!store.is_healthy(2));
        // Quarantining again changes nothing.
        store.set_quarantined(2);
        assert_eq!(store.mappable_count(), 3);
        // An owned core leaving quarantine only becomes mappable once
        // the owner also releases it.
        store.set_owner(2, Some((AppId(7), TaskId(0))));
        store.set_healthy(2, true);
        assert_eq!(store.mappable_count(), 3);
        store.set_owner(2, None);
        assert_eq!(store.mappable_count(), 4);
    }

    #[test]
    fn dirty_set_dedups_within_a_generation() {
        let mut store = CoreStore::new(4);
        assert_eq!(store.generation(), 1);
        store.set_mode(0, CoreMode::Idle(ladder_op()));
        store.set_mode(0, CoreMode::Busy(ladder_op()));
        store.set_owner(3, Some((AppId(1), TaskId(0))));
        assert_eq!(store.dirty_cores(), &[0, 3]);
        assert_eq!(store.dirty_marks(), 2);
        store.advance_generation();
        assert_eq!(store.generation(), 2);
        assert!(store.dirty_cores().is_empty());
        // The same core dirties again in the new generation.
        store.set_mode(0, CoreMode::Off);
        assert_eq!(store.dirty_cores(), &[0]);
        assert_eq!(store.dirty_marks(), 3);
    }

    #[test]
    fn testable_bitset_tail_bits_stay_clear() {
        // A non-multiple-of-64 core count must not surface ghost cores.
        let store = CoreStore::new(70);
        let mut seen = Vec::new();
        store.for_each_testable(|c| seen.push(c));
        assert_eq!(seen.len(), 70);
        assert_eq!(seen.last(), Some(&69));
        assert!(store.views_consistent());
    }

    #[test]
    fn maintained_views_match_rebuild_after_mixed_mutations() {
        let mut store = CoreStore::new(9);
        store.set_owner(0, Some((AppId(1), TaskId(0))));
        store.set_mode(0, CoreMode::Busy(ladder_op()));
        store.begin_session(4, session_at(4), reservation());
        store.set_mode(4, CoreMode::Testing(ladder_op(), 0.5));
        store.set_quarantined(7);
        store.end_session(4);
        store.set_mode(4, CoreMode::Off);
        assert!(store.views_consistent());
        assert_eq!(store.current_views(), store.rebuild_views());
    }

    #[test]
    fn powered_walk_visits_exactly_the_non_off_cores_in_order() {
        // 130 cores: three words, the last one ragged.
        let mut store = CoreStore::new(130);
        let op = ladder_op();
        for (core, mode) in [
            (129, CoreMode::Idle(op)),
            (3, CoreMode::Busy(op)),
            (64, CoreMode::Testing(op, 0.7)),
            (63, CoreMode::Idle(op)),
            (3, CoreMode::Idle(op)),
            (0, CoreMode::Busy(op)),
            (64, CoreMode::Off),
            (100, CoreMode::Testing(op, 0.2)),
            (0, CoreMode::Off),
            (65, CoreMode::Busy(op)),
        ] {
            store.set_mode(core, mode);
            let mut walked = Vec::new();
            store.for_each_powered(|c| walked.push(c));
            let scan: Vec<usize> = (0..store.len())
                .filter(|&c| !matches!(store.mode(c), CoreMode::Off))
                .collect();
            assert_eq!(walked, scan, "after setting core {core}");
            assert!(store.views_consistent());
        }
        let mut walked = Vec::new();
        store.for_each_powered(|c| walked.push(c));
        assert_eq!(walked, vec![3, 63, 65, 100, 129]);
        assert_eq!(store.powered_words().len(), store.testable_words().len());
    }
}
