//! The power-aware online test scheduler.
//!
//! Every control epoch the simulator hands the scheduler the set of *idle*
//! cores (with their criticalities) and the chip's current power headroom;
//! the scheduler decides which cores start an SBST session, at which V/f
//! level and with which routine. Three rules, straight from the paper:
//!
//! 1. **Non-intrusive** — only idle cores are candidates; a session is
//!    aborted if the mapper reclaims the core (handled by the caller via
//!    [`crate::session::SessionOutcome::Aborted`]).
//! 2. **Power-aware** — sessions launch only while their projected power
//!    fits the headroom left under the (PID-governed) budget; candidates
//!    are served in descending criticality so the available watts go to
//!    the cores that need testing most.
//! 3. **Rotating coverage** — each core cycles through the routine library
//!    and, per completed routine, through the DVFS ladder (least-tested
//!    level first), so over time every core is tested at every level.

use crate::coverage::VfCoverageLedger;
use crate::routine::{RoutineId, RoutineLibrary};
use manytest_power::{PowerModel, TechNode, VfLadder, VfLevel};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An idle core offered to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestCandidate {
    /// Dense core index.
    pub core: usize,
    /// Current test criticality (see [`manytest_aging`]).
    pub criticality: f64,
}

/// Idle cores that share one criticality, ranked as if each member were a
/// [`TestCandidate`] with it, without a candidate per member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateClass<'a> {
    /// The members' shared criticality.
    pub criticality: f64,
    /// The members as a bitset: bit `b` of word `w` stands for core
    /// `64·w + b`.
    pub members: &'a [u64],
}

/// A priority confirmation retest ordered by the health state machine: a
/// core in `Suspect` must re-run a test *at the level the detection
/// happened at* before any routine testing is considered. Retests bypass
/// the criticality threshold — the whole point is to resolve the suspect
/// verdict quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetestRequest {
    /// The suspect core.
    pub core: usize,
    /// DVFS level the original detection happened at.
    pub level: VfLevel,
}

/// A decision to start one test session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestLaunch {
    /// Core to test.
    pub core: usize,
    /// Routine to run.
    pub routine: RoutineId,
    /// DVFS level to test at.
    pub level: VfLevel,
    /// Projected power draw of the session, watts.
    pub power: f64,
    /// Execution rate at the chosen level, instructions/second.
    pub rate: f64,
    /// Routine length, instructions.
    pub instructions: u64,
}

impl TestLaunch {
    /// Projected session duration, seconds.
    pub fn duration(&self) -> f64 {
        self.instructions as f64 / self.rate
    }
}

/// A decision *not* to start a session for lack of power, with the
/// headroom at the instant of the denial — the telemetry record behind
/// [`TestScheduler::denied_for_power`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestDenial {
    /// Core that wanted a test.
    pub core: usize,
    /// Level the session would have run at.
    pub level: VfLevel,
    /// Watts the session would have needed.
    pub power: f64,
    /// Watts that were actually left when the denial happened.
    pub headroom: f64,
}

/// Minimum criticality before a core is worth testing. With the default
/// [`manytest_aging::CriticalityModel`] a completely idle core reaches it
/// about every 125 ms of simulated time.
pub const CRITICALITY_THRESHOLD: f64 = 0.5;

/// Upper bound on sessions started per planning call, retests included.
pub const MAX_LAUNCHES_PER_EPOCH: usize = 64;

/// Instructions per cycle of SBST code (test code is branchy; < 1).
pub const SBST_IPC: f64 = 0.8;

/// Number of DVFS levels in the test ladder. The simulator sizes the
/// run's one DVFS ladder with it.
pub const LADDER_LEVELS: usize = 5;

/// The scheduler setting an ablation varies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TestSchedulerConfig {
    /// Ablation switch: test only at this fixed level instead of rotating
    /// through the ladder. `None` (default) = rotate — the paper's policy.
    pub fixed_level: Option<u8>,
}

/// The power-aware online test scheduler (see module docs).
///
/// # Examples
///
/// ```
/// use manytest_sbst::prelude::*;
/// use manytest_power::TechNode;
///
/// let config = TestSchedulerConfig::default();
/// let cores = TechNode::N16.core_count();
/// let mut sched =
///     TestScheduler::with_library(config, TechNode::N16, RoutineLibrary::standard(), cores);
/// let candidates = [TestCandidate { core: 7, criticality: 3.0 }];
/// let (mut launches, mut denials) = (Vec::new(), Vec::new());
/// sched.plan_with_retests_into(&[], &candidates, None, 5.0, &mut launches, &mut denials);
/// assert_eq!(launches.len(), 1);
/// let l = launches[0];
/// sched.on_session_complete(l.core, l.routine, l.level);
/// assert_eq!(sched.ledger().tests_on_core(7), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestScheduler {
    config: TestSchedulerConfig,
    ladder: VfLadder,
    library: RoutineLibrary,
    cursors: Vec<RoutineId>,
    ledger: VfCoverageLedger,
    /// Projected session power per routine and level, routine-major:
    /// [`LADDER_LEVELS`] entries per routine, each computed once by
    /// [`PowerModel::core_power`], so every read has the same bits as a
    /// fresh evaluation.
    power_table: Vec<f64>,
    launches_denied_power: u64,
    /// Ranked-lane heap pops over the scheduler's lifetime (the lazy
    /// partial selection pops one rank per candidate considered).
    heap_pops: u64,
    /// Reused ranking buffer for [`TestScheduler::plan_into`]; always
    /// empty between calls (so equality/serialisation see no difference).
    rank_scratch: Vec<Reverse<u128>>,
}

impl TestScheduler {
    /// Creates a scheduler with an explicit library and core count.
    ///
    /// # Panics
    ///
    /// Panics if `core_count` is zero or the fixed level lies outside the
    /// ladder.
    pub fn with_library(
        config: TestSchedulerConfig,
        node: TechNode,
        library: RoutineLibrary,
        core_count: usize,
    ) -> Self {
        assert!(core_count > 0, "need at least one core");
        if let Some(level) = config.fixed_level {
            assert!((level as usize) < LADDER_LEVELS, "fixed level outside the ladder");
        }
        let model = PowerModel::for_node(node);
        let ladder = VfLadder::for_node(node, LADDER_LEVELS);
        let mut power_table = Vec::with_capacity(library.len() * ladder.len());
        for (_, routine) in library.iter() {
            power_table.extend(ladder.iter().map(|op| model.core_power(op, routine.activity)));
        }
        TestScheduler {
            config,
            ladder,
            library,
            cursors: vec![RoutineId(0); core_count],
            ledger: VfCoverageLedger::new(core_count, LADDER_LEVELS),
            power_table,
            launches_denied_power: 0,
            heap_pops: 0,
            rank_scratch: Vec::new(),
        }
    }

    /// The coverage ledger (per core × V/f level).
    pub fn ledger(&self) -> &VfCoverageLedger {
        &self.ledger
    }

    /// The routine library in use.
    pub fn library(&self) -> &RoutineLibrary {
        &self.library
    }

    /// The DVFS ladder tests are scheduled over.
    pub fn ladder(&self) -> &VfLadder {
        &self.ladder
    }

    /// Projected power of testing at `level` with routine `routine`.
    pub(crate) fn session_power(&self, routine: RoutineId, level: VfLevel) -> f64 {
        let levels = self.ladder.len();
        self.power_table[routine.index() * levels..][..levels][level.0 as usize]
    }

    /// Plans this epoch's launches: candidates above the criticality
    /// threshold, most critical first, greedily admitted while their
    /// projected power fits `headroom_watts`. Clears and fills
    /// caller-owned buffers with the launches *and* the power denials
    /// (core, level, needed watts, headroom at denial), so the control
    /// loop can both act and emit telemetry without building fresh
    /// vectors every epoch.
    pub fn plan_into(
        &mut self,
        candidates: &[TestCandidate],
        headroom_watts: f64,
        launches: &mut Vec<TestLaunch>,
        denials: &mut Vec<TestDenial>,
    ) {
        self.plan_with_retests_into(&[], candidates, None, headroom_watts, launches, denials);
    }

    /// [`TestScheduler::plan_into`] with a priority lane: every
    /// [`RetestRequest`] is served *before* any ranked candidate, pinned
    /// to the level the detection happened at and exempt from the
    /// criticality threshold. Retests still compete for the same headroom
    /// and count against [`MAX_LAUNCHES_PER_EPOCH`] — confirmation is
    /// urgent, not free.
    ///
    /// `class`, when given, ranks each of its members as a candidate with
    /// the class's criticality. Its members must be distinct from the
    /// candidates and the retests.
    pub fn plan_with_retests_into(
        &mut self,
        retests: &[RetestRequest],
        candidates: &[TestCandidate],
        class: Option<CandidateClass<'_>>,
        headroom_watts: f64,
        launches: &mut Vec<TestLaunch>,
        denials: &mut Vec<TestDenial>,
    ) {
        launches.clear();
        denials.clear();
        let mut remaining = headroom_watts;
        for req in retests {
            if launches.len() >= MAX_LAUNCHES_PER_EPOCH {
                break;
            }
            self.launch_or_deny(req.core, req.level, &mut remaining, launches, denials);
        }
        let mut ranked = std::mem::take(&mut self.rank_scratch);
        // lint:allow(hot-path-purity, reason = "rank scratch reuses its capacity across scheduling rounds; extend allocates only until the high-water mark")
        ranked.extend(
            candidates
                .iter()
                .filter(|c| c.criticality >= CRITICALITY_THRESHOLD)
                .map(|c| Reverse(Self::rank_key(c))),
        );
        // Deterministic top-k partial selection: heapify in O(n) and pop
        // ranks lazily, so ranks beyond the launch cap are never ordered.
        // The keys are distinct, so the pop sequence is the full sort's.
        let mut heap = BinaryHeap::from(ranked);
        // The class's keys share their high half, so they ascend with the
        // member ids; merging them with the heap pops the sequence a heap
        // of every member would.
        let (high, members) = match class {
            Some(c) if c.criticality >= CRITICALITY_THRESHOLD => {
                (Self::rank_high(c.criticality), c.members)
            }
            _ => (0, &[][..]),
        };
        let mut class_keys = members.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors(Some(word), |&bits| Some(bits & bits.wrapping_sub(1)))
                .take_while(|&bits| bits != 0)
                .map(move |bits| {
                    let core = w * 64 + bits.trailing_zeros() as usize;
                    u128::from(high) << 64 | core as u128
                })
        });
        let mut next_member = class_keys.next();
        while launches.len() < MAX_LAUNCHES_PER_EPOCH {
            let key = match next_member {
                Some(member) if heap.peek().is_none_or(|&Reverse(top)| member < top) => {
                    next_member = class_keys.next();
                    member
                }
                _ => match heap.pop() {
                    Some(Reverse(top)) => top,
                    None => break,
                },
            };
            self.heap_pops += 1;
            let core = key as u64 as usize;
            let level = match self.config.fixed_level {
                Some(l) => VfLevel(l),
                None => self.ledger.next_level_staggered(core),
            };
            self.launch_or_deny(core, level, &mut remaining, launches, denials);
        }
        let mut ranked = heap.into_vec();
        ranked.clear();
        self.rank_scratch = ranked;
    }

    /// The ranked lane's order as one integer: smaller keys rank first.
    /// The high half is the criticality's total-order bits, complemented
    /// so that higher criticality gives a smaller key; the low half is
    /// the core id, so ties go to the lower core. `+ 0.0` folds `-0.0`
    /// into `+0.0`, so the keys order every non-NaN criticality exactly
    /// as `partial_cmp` does, ties included. Core ids are unique per
    /// call, so no two keys are equal. NaN never gets here: it fails the
    /// `criticality >= threshold` filter, which also kept the f64 heap's
    /// NaN panic unreachable.
    fn rank_key(c: &TestCandidate) -> u128 {
        u128::from(Self::rank_high(c.criticality)) << 64 | c.core as u128
    }

    /// The high half of [`Self::rank_key`] for `criticality`.
    fn rank_high(criticality: f64) -> u64 {
        let bits = (criticality + 0.0).to_bits();
        let ord = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
        !ord
    }

    /// Launches a session on `core` at `level` with its next routine if
    /// the session's power fits `remaining`, else records a denial.
    fn launch_or_deny(
        &mut self,
        core: usize,
        level: VfLevel,
        remaining: &mut f64,
        launches: &mut Vec<TestLaunch>,
        denials: &mut Vec<TestDenial>,
    ) {
        let routine = self.cursors[core];
        let power = self.session_power(routine, level);
        if power <= *remaining {
            *remaining -= power;
            launches.push(TestLaunch {
                core,
                routine,
                level,
                power,
                rate: self.ladder.point(level).frequency * SBST_IPC,
                instructions: self.library.routine(routine).instructions,
            });
        } else {
            self.launches_denied_power += 1;
            denials.push(TestDenial {
                core,
                level,
                power,
                headroom: *remaining,
            });
        }
    }

    /// [`Self::plan_with_retests_into`] as it was written first: an f64
    /// max-heap over the candidates, the ledger's reference level pick
    /// and a fresh `model.core_power` per candidate. The oracle for the
    /// integer-key heap and the power table.
    #[cfg(test)]
    fn plan_reference(
        &mut self,
        model: &PowerModel,
        retests: &[RetestRequest],
        candidates: &[TestCandidate],
        headroom_watts: f64,
        launches: &mut Vec<TestLaunch>,
        denials: &mut Vec<TestDenial>,
    ) {
        fn ranks_before(a: &TestCandidate, b: &TestCandidate) -> bool {
            match a.criticality.partial_cmp(&b.criticality) {
                Some(std::cmp::Ordering::Greater) => true,
                Some(std::cmp::Ordering::Less) => false,
                Some(std::cmp::Ordering::Equal) => a.core < b.core,
                None => panic!("criticality is never NaN"),
            }
        }
        fn sift_down(heap: &mut [TestCandidate], len: usize, mut i: usize) {
            loop {
                let left = 2 * i + 1;
                if left >= len {
                    break;
                }
                let mut best = left;
                let right = left + 1;
                if right < len && ranks_before(&heap[right], &heap[best]) {
                    best = right;
                }
                if ranks_before(&heap[best], &heap[i]) {
                    heap.swap(i, best);
                    i = best;
                } else {
                    break;
                }
            }
        }
        let offer = |s: &mut Self,
                     core: usize,
                     level: VfLevel,
                     remaining: &mut f64,
                     launches: &mut Vec<TestLaunch>,
                     denials: &mut Vec<TestDenial>| {
            let routine_id = s.cursors[core];
            let routine = s.library.routine(routine_id);
            let op = s.ladder.point(level);
            let power = model.core_power(op, routine.activity);
            if power <= *remaining {
                *remaining -= power;
                launches.push(TestLaunch {
                    core,
                    routine: routine_id,
                    level,
                    power,
                    rate: op.frequency * SBST_IPC,
                    instructions: routine.instructions,
                });
            } else {
                s.launches_denied_power += 1;
                denials.push(TestDenial {
                    core,
                    level,
                    power,
                    headroom: *remaining,
                });
            }
        };
        launches.clear();
        denials.clear();
        let mut remaining = headroom_watts;
        for req in retests {
            if launches.len() >= MAX_LAUNCHES_PER_EPOCH {
                break;
            }
            offer(self, req.core, req.level, &mut remaining, launches, denials);
        }
        let mut ranked: Vec<TestCandidate> = candidates
            .iter()
            .copied()
            .filter(|c| c.criticality >= CRITICALITY_THRESHOLD)
            .collect();
        let mut heap_len = ranked.len();
        for i in (0..heap_len / 2).rev() {
            sift_down(&mut ranked, heap_len, i);
        }
        while heap_len > 0 {
            if launches.len() >= MAX_LAUNCHES_PER_EPOCH {
                break;
            }
            let cand = ranked[0];
            heap_len -= 1;
            ranked.swap(0, heap_len);
            sift_down(&mut ranked, heap_len, 0);
            self.heap_pops += 1;
            let level = match self.config.fixed_level {
                Some(l) => VfLevel(l),
                None => self.ledger.next_level_staggered_reference(cand.core),
            };
            offer(self, cand.core, level, &mut remaining, launches, denials);
        }
    }

    /// Ranked-lane heap pops over the scheduler's lifetime.
    pub fn heap_pops(&self) -> u64 {
        self.heap_pops
    }

    /// Records a completed session: coverage advances and the core's
    /// routine cursor rotates.
    #[inline]
    pub fn on_session_complete(&mut self, core: usize, routine: RoutineId, level: VfLevel) {
        self.ledger.record(core, level);
        self.cursors[core] = self.library.next_in_rotation(routine);
    }

    /// Number of planning attempts that were denied for lack of power.
    pub fn denied_for_power(&self) -> u64 {
        self.launches_denied_power
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler() -> TestScheduler {
        TestScheduler::with_library(
            TestSchedulerConfig::default(),
            TechNode::N16,
            RoutineLibrary::standard(),
            16,
        )
    }

    fn candidate(core: usize, crit: f64) -> TestCandidate {
        TestCandidate {
            core,
            criticality: crit,
        }
    }

    #[test]
    fn most_critical_core_is_served_first() {
        let mut s = scheduler();
        let candidates = [candidate(0, 1.0), candidate(1, 5.0), candidate(2, 3.0)];
        let (mut launches, mut denials) = (Vec::new(), Vec::new());
        s.plan_with_retests_into(&[], &candidates, None, 100.0, &mut launches, &mut denials);
        let order: Vec<usize> = launches.iter().map(|l| l.core).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn heap_selection_matches_the_full_sort_order() {
        // Equivalence against the pre-heap ranking: pops must come out in
        // exactly the order the old full `sort_by` (descending
        // criticality, ties ascending by core id) produced. Deterministic
        // xorshift inputs with a coarse criticality grid at or above the
        // threshold force plenty of ties; at most the launch cap's worth
        // of candidates, so every one is popped.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let n = (next() % MAX_LAUNCHES_PER_EPOCH as u64) as usize + 1;
            let candidates: Vec<TestCandidate> = (0..n)
                .map(|core| candidate(core, (next() % 8 + 1) as f64 * 0.5))
                .collect();
            let mut reference = candidates.clone();
            reference.sort_by(|a, b| {
                b.criticality
                    .partial_cmp(&a.criticality)
                    .unwrap()
                    .then(a.core.cmp(&b.core))
            });
            let expected: Vec<usize> = reference.iter().map(|c| c.core).collect();
            let mut s = TestScheduler::with_library(
                TestSchedulerConfig::default(),
                TechNode::N16,
                RoutineLibrary::standard(),
                64,
            );
            let pops_before = s.heap_pops();
            let (mut launches, mut denials) = (Vec::new(), Vec::new());
            s.plan_with_retests_into(&[], &candidates, None, 1e9, &mut launches, &mut denials);
            let order: Vec<usize> = launches.iter().map(|l| l.core).collect();
            assert_eq!(order, expected);
            assert_eq!(s.heap_pops() - pops_before, n as u64);
        }
    }

    #[test]
    fn below_threshold_cores_are_skipped() {
        let mut s = scheduler();
        let candidates = [candidate(0, 0.2), candidate(1, 0.8)];
        let (mut launches, mut denials) = (Vec::new(), Vec::new());
        s.plan_with_retests_into(&[], &candidates, None, 100.0, &mut launches, &mut denials);
        assert_eq!(launches.len(), 1);
        assert_eq!(launches[0].core, 1);
    }

    #[test]
    fn zero_headroom_launches_nothing() {
        let mut s = scheduler();
        let (mut launches, mut denials) = (Vec::new(), Vec::new());
        s.plan_with_retests_into(
            &[],
            &[candidate(0, 5.0)],
            None,
            0.0,
            &mut launches,
            &mut denials,
        );
        assert!(launches.is_empty());
        assert_eq!(s.denied_for_power(), 1);
    }

    #[test]
    fn headroom_limits_concurrent_sessions() {
        let mut s = scheduler();
        // Cores 0, 5, 10, 15 all start at level 0 (stagger period = 5), so
        // every planned session costs the same.
        let one_session = s.session_power(RoutineId(0), VfLevel(0));
        let candidates: Vec<TestCandidate> =
            (0..16).step_by(5).map(|c| candidate(c, 1.0)).collect();
        let (mut launches, mut denials) = (Vec::new(), Vec::new());
        let headroom = one_session * 2.5;
        s.plan_with_retests_into(
            &[],
            &candidates,
            None,
            headroom,
            &mut launches,
            &mut denials,
        );
        assert_eq!(launches.len(), 2, "2.5 sessions of headroom admits 2");
        let total: f64 = launches.iter().map(|l| l.power).sum();
        assert!(total <= one_session * 2.5 + 1e-9);
    }

    #[test]
    fn max_launches_cap_is_respected() {
        let cores = MAX_LAUNCHES_PER_EPOCH + 36;
        let mut s = TestScheduler::with_library(
            TestSchedulerConfig::default(),
            TechNode::N16,
            RoutineLibrary::standard(),
            cores,
        );
        let candidates: Vec<TestCandidate> = (0..cores).map(|c| candidate(c, 1.0)).collect();
        let (mut launches, mut denials) = (Vec::new(), Vec::new());
        s.plan_with_retests_into(&[], &candidates, None, 1e9, &mut launches, &mut denials);
        assert_eq!(launches.len(), MAX_LAUNCHES_PER_EPOCH);
        assert!(denials.is_empty(), "the cap stops the lane before any denial");
    }

    #[test]
    fn completion_rotates_routines_and_levels() {
        let mut s = scheduler();
        let (mut launches, mut denials) = (Vec::new(), Vec::new());
        s.plan_with_retests_into(
            &[],
            &[candidate(0, 1.0)],
            None,
            100.0,
            &mut launches,
            &mut denials,
        );
        let first = launches[0];
        s.on_session_complete(first.core, first.routine, first.level);
        s.plan_with_retests_into(
            &[],
            &[candidate(0, 1.0)],
            None,
            100.0,
            &mut launches,
            &mut denials,
        );
        let second = launches[0];
        assert_ne!(first.routine, second.routine, "routine must rotate");
        assert_ne!(first.level, second.level, "level must rotate");
        assert_eq!(s.ledger().tests_on_core(0), 1);
    }

    #[test]
    fn abort_gives_no_credit_and_repeats_routine() {
        let mut s = scheduler();
        let (mut launches, mut denials) = (Vec::new(), Vec::new());
        s.plan_with_retests_into(
            &[],
            &[candidate(0, 1.0)],
            None,
            100.0,
            &mut launches,
            &mut denials,
        );
        let first = launches[0];
        s.plan_with_retests_into(
            &[],
            &[candidate(0, 1.0)],
            None,
            100.0,
            &mut launches,
            &mut denials,
        );
        let retry = launches[0];
        assert_eq!(first.routine, retry.routine);
        assert_eq!(s.ledger().tests_on_core(0), 0);
    }

    #[test]
    fn all_levels_get_covered_over_time() {
        let mut s = scheduler();
        let (mut launches, mut denials) = (Vec::new(), Vec::new());
        for _ in 0..(5 * 5) {
            // 5 routines × 5 levels
            s.plan_with_retests_into(
                &[],
                &[candidate(3, 1.0)],
                None,
                100.0,
                &mut launches,
                &mut denials,
            );
            let l = launches[0];
            s.on_session_complete(l.core, l.routine, l.level);
        }
        assert!(s.ledger().core_fully_covered(3));
    }

    #[test]
    fn near_threshold_tests_are_cheaper() {
        let s = scheduler();
        let low = s.session_power(RoutineId(0), VfLevel(0));
        let high = s.session_power(RoutineId(0), VfLevel(4));
        assert!(low < high);
    }

    #[test]
    fn launch_duration_is_consistent() {
        let mut s = scheduler();
        let (mut launches, mut denials) = (Vec::new(), Vec::new());
        s.plan_with_retests_into(
            &[],
            &[candidate(0, 1.0)],
            None,
            100.0,
            &mut launches,
            &mut denials,
        );
        let l = launches[0];
        let expected = l.instructions as f64 / l.rate;
        assert!((l.duration() - expected).abs() < 1e-15);
        assert!(l.duration() > 0.0);
    }

    #[test]
    fn denied_and_attempt_counters() {
        let mut s = scheduler();
        let candidates = [candidate(0, 1.0), candidate(1, 1.0)];
        let (mut launches, mut denials) = (Vec::new(), Vec::new());
        s.plan_with_retests_into(&[], &candidates, None, 1e-6, &mut launches, &mut denials);
        assert_eq!(s.denied_for_power(), 2);
    }

    #[test]
    fn plan_into_reports_denials_with_headroom() {
        let mut s = scheduler();
        let one_session = s.session_power(RoutineId(0), VfLevel(0));
        // Stagger-aligned cores so both sessions cost the same; headroom
        // admits exactly one, the second is denied with the leftovers.
        let candidates = [candidate(0, 2.0), candidate(5, 1.0)];
        let mut launches = Vec::new();
        let mut denials = Vec::new();
        s.plan_into(&candidates, one_session * 1.5, &mut launches, &mut denials);
        assert_eq!(launches.len(), 1);
        assert_eq!(denials.len(), 1);
        let d = denials[0];
        assert_eq!(d.core, 5);
        assert!((d.power - one_session).abs() < 1e-12);
        assert!((d.headroom - one_session * 0.5).abs() < 1e-9);
        assert!(d.headroom < d.power, "denial means needed > headroom");
        assert_eq!(s.denied_for_power(), 1);
        // Buffers are cleared on reuse.
        s.plan_into(&candidates, 1e9, &mut launches, &mut denials);
        assert_eq!(launches.len(), 2);
        assert!(denials.is_empty());
    }

    #[test]
    fn plan_and_plan_into_agree() {
        let mut a = scheduler();
        let mut b = scheduler();
        let candidates: Vec<TestCandidate> = (0..16).map(|c| candidate(c, 1.0)).collect();
        let headroom = a.session_power(RoutineId(0), VfLevel(0)) * 3.2;
        let (mut via_plan, mut denials) = (Vec::new(), Vec::new());
        a.plan_with_retests_into(
            &[],
            &candidates,
            None,
            headroom,
            &mut via_plan,
            &mut denials,
        );
        let mut via_into = Vec::new();
        b.plan_into(&candidates, headroom, &mut via_into, &mut denials);
        assert_eq!(via_plan, via_into);
        assert_eq!(a.denied_for_power(), b.denied_for_power());
        assert_eq!(a, b, "scratch buffer must not leak into scheduler state");
    }

    #[test]
    fn fixed_level_pins_every_launch() {
        let cfg = TestSchedulerConfig { fixed_level: Some(4) };
        let mut s = TestScheduler::with_library(cfg, TechNode::N16, RoutineLibrary::standard(), 8);
        let (mut launches, mut denials) = (Vec::new(), Vec::new());
        for round in 0..3 {
            let candidates: Vec<TestCandidate> = (0..8).map(|c| candidate(c, 1.0)).collect();
            s.plan_with_retests_into(&[], &candidates, None, 1e9, &mut launches, &mut denials);
            for &l in &launches {
                assert_eq!(l.level, VfLevel(4), "round {round}");
                s.on_session_complete(l.core, l.routine, l.level);
            }
        }
    }

    #[test]
    fn retests_are_served_first_at_the_pinned_level() {
        let mut s = scheduler();
        // The suspect core fails the criticality threshold *and* would
        // rotate to a different level — the retest overrides both.
        let retests = [RetestRequest { core: 7, level: VfLevel(3) }];
        let candidates = [candidate(0, 5.0), candidate(7, 0.1)];
        let mut launches = Vec::new();
        let mut denials = Vec::new();
        s.plan_with_retests_into(
            &retests,
            &candidates,
            None,
            1e9,
            &mut launches,
            &mut denials,
        );
        assert_eq!(launches.len(), 2);
        assert_eq!(launches[0].core, 7, "retest comes before the ranked lane");
        assert_eq!(launches[0].level, VfLevel(3), "retest is pinned to the detecting level");
        assert_eq!(launches[1].core, 0);
    }

    #[test]
    fn retests_compete_for_headroom_and_the_launch_cap() {
        let mut s = scheduler();
        // Cursor starts at routine 0 on every core.
        let retest_power = s.session_power(RoutineId(0), VfLevel(2));
        let retests = [
            RetestRequest { core: 1, level: VfLevel(2) },
            RetestRequest { core: 2, level: VfLevel(2) },
        ];
        let mut launches = Vec::new();
        let mut denials = Vec::new();
        // Headroom for exactly one retest: the second is denied, the
        // ranked candidate behind it is denied too.
        s.plan_with_retests_into(
            &retests,
            &[candidate(0, 5.0)],
            None,
            retest_power * 1.2,
            &mut launches,
            &mut denials,
        );
        assert_eq!(launches.len(), 1);
        assert_eq!(launches[0].core, 1);
        assert_eq!(denials.len(), 2);
        assert_eq!(denials[0].core, 2);

        // Launch cap: one retest more than the cap claims every slot,
        // and the ranked candidate gets none.
        let cores = MAX_LAUNCHES_PER_EPOCH + 2;
        let mut s = TestScheduler::with_library(
            TestSchedulerConfig::default(),
            TechNode::N16,
            RoutineLibrary::standard(),
            cores,
        );
        let retests: Vec<RetestRequest> = (1..cores)
            .map(|core| RetestRequest { core, level: VfLevel(0) })
            .collect();
        s.plan_with_retests_into(
            &retests,
            &[candidate(0, 5.0)],
            None,
            1e9,
            &mut launches,
            &mut denials,
        );
        let served: Vec<usize> = launches.iter().map(|l| l.core).collect();
        assert_eq!(served, (1..=MAX_LAUNCHES_PER_EPOCH).collect::<Vec<_>>());
        assert!(denials.is_empty());
    }

    #[test]
    fn power_table_matches_core_power() {
        for node in TechNode::ALL {
            let cfg = TestSchedulerConfig::default();
            let s = TestScheduler::with_library(cfg, node, RoutineLibrary::standard(), 1);
            let model = PowerModel::for_node(node);
            assert_eq!(s.ladder().len(), LADDER_LEVELS);
            for (id, routine) in s.library().iter() {
                for op in s.ladder().iter() {
                    let fresh = model.core_power(op, routine.activity);
                    assert_eq!(s.session_power(id, op.level).to_bits(), fresh.to_bits());
                }
            }
        }
    }

    #[test]
    fn plan_matches_reference() {
        // The integer-key heap, the class merge, the power table and the
        // level walk against `plan_reference`, over 12 epochs per
        // scheduler pair, with completions feeding back into the ledgers
        // and cursors. The criticalities are tie-heavy and include ±0.0,
        // subnormals, ±∞, NaN, f64::MAX and the threshold's neighbours;
        // meshes of up to 160 cores let the launch cap bind. The
        // reference ranks the class's members as plain candidates.
        let crits = [
            0.0,
            -0.0,
            CRITICALITY_THRESHOLD,
            CRITICALITY_THRESHOLD.next_down(),
            1.0,
            2.5,
            -1.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
        ];
        let mut rng = manytest_sim::SimRng::seed_from(2323);
        let mut index = |len: usize| rng.gen_range(len as u64) as usize;
        let mut capped = 0;
        for case in 0..300 {
            let node = [TechNode::N45, TechNode::N22, TechNode::N16][case % 3];
            let cfg = TestSchedulerConfig {
                fixed_level: (index(5) == 0).then(|| index(LADDER_LEVELS) as u8),
            };
            let cores = 1 + index(160);
            let mut fast =
                TestScheduler::with_library(cfg, node, RoutineLibrary::standard(), cores);
            let mut slow = fast.clone();
            let model = PowerModel::for_node(node);
            let session = fast.session_power(RoutineId(0), VfLevel(0));
            let (mut lf, mut df, mut ls, mut ds) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for epoch in 0..12 {
                let mut ids: Vec<usize> = (0..cores).collect();
                for i in (1..cores).rev() {
                    ids.swap(i, index(i + 1));
                }
                let n = index(cores + 1);
                let continuous = index(3) == 0;
                let candidates: Vec<TestCandidate> = ids[..n]
                    .iter()
                    .map(|&core| match continuous {
                        true => candidate(core, index(1 << 20) as f64 / 1e5),
                        false => candidate(core, crits[index(crits.len())]),
                    })
                    .collect();
                let retests: Vec<RetestRequest> = ids[n..]
                    .iter()
                    .take(index(3))
                    .map(|&core| RetestRequest {
                        core,
                        level: VfLevel(index(LADDER_LEVELS) as u8),
                    })
                    .collect();
                let headroom = match index(5) {
                    0 => 0.0,
                    1 => f64::INFINITY,
                    k => session * (index(1000) * n * k) as f64 / 2000.0,
                };
                // A class of the next cores, possibly empty: its shared
                // criticality ties with a candidate's, is ±0.0, sits at
                // or just below the threshold, or is drawn like one.
                let rest = &ids[n + retests.len()..];
                let members = &rest[..index(rest.len() + 1)];
                let mut words = vec![0u64; cores.div_ceil(64)];
                for &core in members {
                    words[core / 64] |= 1 << (core % 64);
                }
                let shared = match index(6) {
                    0 if n > 0 => candidates[index(n)].criticality,
                    1 => 0.0,
                    2 => -0.0,
                    3 => CRITICALITY_THRESHOLD,
                    4 => CRITICALITY_THRESHOLD.next_down(),
                    _ => crits[index(crits.len())],
                };
                let class = (index(4) != 0).then_some(CandidateClass {
                    criticality: shared,
                    members: &words,
                });
                let mut expanded = candidates.clone();
                if class.is_some() {
                    expanded.extend(members.iter().map(|&core| candidate(core, shared)));
                }
                fast.plan_with_retests_into(
                    &retests,
                    &candidates,
                    class,
                    headroom,
                    &mut lf,
                    &mut df,
                );
                slow.plan_reference(&model, &retests, &expanded, headroom, &mut ls, &mut ds);
                let what = format!(
                    "case {case} epoch {epoch}: {cfg:?}, headroom {headroom}, class {class:?}"
                );
                // Debug text tells every f64 bit pattern apart but NaN's.
                assert_eq!(format!("{lf:?}"), format!("{ls:?}"), "{what}");
                assert_eq!(format!("{df:?}"), format!("{ds:?}"), "{what}");
                assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "{what}");
                capped += usize::from(lf.len() == MAX_LAUNCHES_PER_EPOCH);
                for l in &lf {
                    if index(10) < 7 {
                        fast.on_session_complete(l.core, l.routine, l.level);
                        slow.on_session_complete(l.core, l.routine, l.level);
                    }
                }
            }
        }
        assert!(capped > 0, "the launch cap never bound");
    }

    #[test]
    fn plan_with_empty_retests_matches_plan_into() {
        let mut a = scheduler();
        let mut b = scheduler();
        let candidates: Vec<TestCandidate> = (0..16).map(|c| candidate(c, 1.0)).collect();
        let headroom = a.session_power(RoutineId(0), VfLevel(0)) * 3.2;
        let mut la = Vec::new();
        let mut da = Vec::new();
        let mut lb = Vec::new();
        let mut db = Vec::new();
        a.plan_into(&candidates, headroom, &mut la, &mut da);
        b.plan_with_retests_into(&[], &candidates, None, headroom, &mut lb, &mut db);
        assert_eq!(la, lb);
        assert_eq!(da, db);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "fixed level outside")]
    fn fixed_level_out_of_range_panics() {
        let cfg = TestSchedulerConfig { fixed_level: Some(9) };
        TestScheduler::with_library(cfg, TechNode::N16, RoutineLibrary::standard(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        TestScheduler::with_library(
            TestSchedulerConfig::default(),
            TechNode::N16,
            RoutineLibrary::standard(),
            0,
        );
    }
}
