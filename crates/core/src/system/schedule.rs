//! The schedule phase: power-aware SBST. The scheduler ranks the cores
//! the wake-up calendar has due, serves the retest lane first and
//! launches sessions while the power headroom lasts.

use super::*;

/// Scratch buffers the schedule phase rebuilds in place every tick so
/// the steady-state hot path never touches the heap.
pub(super) struct SchedulePhase {
    pub(super) candidates: Vec<TestCandidate>,
    pub(super) retests: Vec<RetestRequest>,
    pub(super) launches: Vec<TestLaunch>,
    pub(super) denials: Vec<TestDenial>,
}

impl System {
    pub(super) fn schedule_tests(&mut self, now: f64) {
        // Reuse the candidate buffer across ticks (`plan` takes `&mut
        // self.scheduler`, so the buffer is moved out for the call).
        let mut candidates = std::mem::take(&mut self.sched.candidates);
        candidates.clear();
        // Suspect cores go through the priority retest lane instead of
        // the ranked pool: pinned to the level the detection happened at,
        // exempt from the criticality threshold, served first.
        let mut retests = std::mem::take(&mut self.sched.retests);
        retests.clear();
        // One walk over the testable cores the wake-up calendar has due,
        // in ascending core order. A healthy core below the threshold
        // can never launch or be denied, so only the cores at or above it
        // become candidates, and the ranking sees exactly the full
        // scan's list. Non-healthy cores never leave the due set, so the
        // retest lane is the full scan's too.
        let mut scanned = 0u64;
        self.calendar.ensure_len(self.store.len());
        // On the steady thermal path the cores that were never powered
        // have one stress history, bit for bit: the wear pass charges
        // each the same 0 W damage every epoch, and none was ever
        // tested. So they are one class, healthy and testable, with one
        // criticality and one wake epoch, and the walk skips them. The
        // ranked lane expands the class from the never-powered bitset.
        let steady = self.close.thermal.is_none();
        let never_powered = self.store.never_powered_words();
        let mut class = None;
        if steady && self.calendar.class_due() {
            if let Some(w) = never_powered.iter().position(|&word| word != 0) {
                let first = w * 64 + never_powered[w].trailing_zeros() as usize;
                scanned += 1;
                let criticality = self.criticality.criticality(self.stress.core(first), now);
                if self.calendar.offer_class(criticality) {
                    class = Some(criticality);
                }
            }
        }
        let powered = self.store.powered_words();
        for (w, &word) in self.store.testable_words().iter().enumerate() {
            let word = if steady {
                word & !never_powered[w]
            } else {
                word
            };
            let mut bits = if word == 0 {
                0
            } else {
                word & self.calendar.due_word(w)
            };
            while bits != 0 {
                let bit = bits.trailing_zeros();
                let i = w * 64 + bit as usize;
                bits &= bits - 1;
                scanned += 1;
                if self.health.is_healthy(i) {
                    let criticality = self.criticality.criticality(self.stress.core(i), now);
                    let gated = powered[w] >> bit & 1 == 0;
                    if self.calendar.offer(i, criticality, gated) {
                        candidates.push(TestCandidate { core: i, criticality });
                    }
                } else if let Some(level) = self.health.suspect_level(i) {
                    retests.push(RetestRequest { core: i, level });
                }
            }
        }
        #[cfg(test)]
        self.assert_matches_full_scan(now, &candidates, &retests, class);
        self.profile.candidates_scanned += scanned;
        self.profile.sched_calls += 1;
        self.profile.retests_planned += retests.len() as u64;
        PhaseProfile::raise(&mut self.profile.candidates_high_water, candidates.len());
        if candidates.is_empty() && retests.is_empty() && class.is_none() {
            self.sched.candidates = candidates;
            self.sched.retests = retests;
            return;
        }
        let headroom = self.budget.headroom();
        let mut launches = std::mem::take(&mut self.sched.launches);
        let mut denials = std::mem::take(&mut self.sched.denials);
        let class = class.map(|criticality| CandidateClass {
            criticality,
            members: self.store.never_powered_words(),
        });
        self.scheduler.plan_with_retests_into(
            &retests,
            &candidates,
            class,
            headroom,
            &mut launches,
            &mut denials,
        );
        self.sched.candidates = candidates;
        self.sched.retests = retests;
        self.profile.heap_pops = self.scheduler.heap_pops();
        self.profile.sched_denials += denials.len() as u64;
        PhaseProfile::raise(&mut self.profile.launches_high_water, launches.len());
        // Denials are caused by the epoch's power state, which the cap
        // move freshly established at the top of this control tick.
        let cap_link = self
            .tel
            .last_cap_event
            .map(|id| CauseLink::new(CauseKind::CapMove, id));
        for d in &denials {
            self.tel.observe_linked(
                now,
                cap_link,
                SimEvent::TestDeniedPower {
                    core: d.core as u32,
                    needed: d.power,
                    headroom: d.headroom,
                },
            );
        }
        for launch in &launches {
            let Ok(reservation) = self.budget.reserve(launch.power) else {
                continue;
            };
            let core = launch.core;
            let session = TestSession::new(
                launch.routine,
                launch.level,
                launch.instructions,
                launch.rate,
                now,
            );
            let op = self.scheduler.ladder().point(launch.level);
            let activity = self.scheduler.library().routine(launch.routine).activity;
            let gen = self.store.begin_session(core, session, reservation);
            self.profile.sched_launches += 1;
            self.set_mode(core, now, CoreMode::Testing(op, activity));
            // Retest-lane launches are caused by the open suspicion;
            // ranked-pool launches are periodic policy decisions (roots).
            let lane = if self.health.is_suspect(core) {
                self.tel.suspect_cause[core].map(|id| CauseLink::new(CauseKind::RetestLane, id))
            } else {
                None
            };
            // Ranked-lane launches are genuine roots (periodic SBST is
            // the policy's own clock); retest-lane launches chain back
            // to the suspicion via `lane`, so no allow is needed here.
            let launch_id = self.tel.observe_linked(
                now,
                lane,
                SimEvent::TestLaunched {
                    core: core as u32,
                    routine: launch.routine.0,
                    level: launch.level.0,
                    power: launch.power,
                    headroom: self.budget.headroom(),
                },
            );
            self.tel.session_cause[core] = Some(launch_id);
            let finish = now + launch.duration();
            let ev = Ev::SessionFinish { core, gen };
            self.queue.schedule(SimTime::from_secs_f64(finish), ev);
        }
        self.sched.launches = launches;
        self.sched.denials = denials;
    }

    pub(super) fn abort_session(&mut self, core: usize, now: f64, reason: AbortReason) {
        let (session, reservation) = self.store.end_session(core);
        debug_assert!(session.is_some());
        debug_assert!(
            reservation.is_some(),
            "active session holds a reservation"
        );
        if let Some(reservation) = reservation {
            self.budget.release(reservation);
        }
        self.report.tests_aborted += 1;
        let session_link = self.tel.session_cause[core]
            .take()
            .map(|id| CauseLink::new(CauseKind::Session, id));
        self.tel.observe_linked(
            now,
            session_link,
            SimEvent::TestAborted {
                core: core as u32,
                reason,
            },
        );
        let mode = self.resting_mode(core);
        self.set_mode(core, now, mode);
    }
}

#[cfg(test)]
mod oracle {
    use super::*;
    use manytest_aging::CoreStress;

    impl System {
        /// The oracle for the wake-up calendar: the schedule walk as it
        /// was before it, which evaluates every testable core every
        /// epoch. In unit-test builds every schedule call checks that
        /// the calendar produced the same ranked candidates (cores,
        /// criticality bits and order), with the never-powered class's
        /// members expanded at `class`'s criticality, and the same
        /// retests. On the steady path it also checks the class: every
        /// member is gated, healthy and testable, with the first
        /// member's stress bit for bit.
        pub(super) fn assert_matches_full_scan(
            &self,
            now: f64,
            candidates: &[TestCandidate],
            retests: &[RetestRequest],
            class: Option<f64>,
        ) {
            let mut full = Vec::new();
            let mut full_retests = Vec::new();
            self.store.for_each_testable(|i| {
                if self.health.is_healthy(i) {
                    let criticality = self.criticality.criticality(self.stress.core(i), now);
                    if criticality >= CRITICALITY_THRESHOLD {
                        full.push((i, criticality.to_bits()));
                    }
                } else if let Some(level) = self.health.suspect_level(i) {
                    full_retests.push(RetestRequest { core: i, level });
                }
            });
            let mut walked: Vec<_> = candidates
                .iter()
                .map(|c| (c.core, c.criticality.to_bits()))
                .collect();
            if self.close.thermal.is_some() {
                assert_eq!(class, None, "no class on the transient path");
            }
            let bits = |s: &CoreStress| {
                [
                    s.total_damage,
                    s.damage_since_test,
                    s.utilization,
                    s.last_test_time,
                ]
                .map(f64::to_bits)
            };
            let mut first = None;
            self.store.for_each_never_powered(|i| {
                assert!(
                    matches!(self.store.mode(i), CoreMode::Off)
                        && self.store.is_test_candidate(i)
                        && self.health.is_healthy(i),
                    "never-powered core {i} at t = {now}"
                );
                if self.close.thermal.is_none() {
                    let stress = bits(self.stress.core(i));
                    assert_eq!(
                        stress,
                        *first.get_or_insert(stress),
                        "core {i} at t = {now}"
                    );
                }
                if let Some(criticality) = class {
                    walked.push((i, criticality.to_bits()));
                }
            });
            walked.sort_unstable_by_key(|&(core, _)| core);
            assert_eq!(walked, full, "ranked candidates at t = {now}");
            assert_eq!(retests, full_retests, "retests at t = {now}");
        }
    }
}
