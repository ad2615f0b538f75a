//! The event drain: the handlers of the events the queue resolves at
//! exact sub-epoch times, with the arrival lane and the NoC state that
//! task messages load.

use super::*;

/// Instructions per cycle of workload code: a task of `n` instructions
/// runs for `n / (f · WORKLOAD_IPC)` seconds at frequency `f`.
const WORKLOAD_IPC: f64 = 1.0;

/// Confirmation retests (K) a detection must survive before the core is
/// quarantined. Any retest that reproduces the symptom confirms; K
/// retests with no reproduction clear the core.
const CONFIRMATION_RETESTS: u8 = 3;

/// The state only the arrival handler writes: the arrival process, its
/// random stream and the workload mix it samples.
pub(super) struct ArrivalLane {
    pub(super) process: ArrivalProcess,
    pub(super) rng: SimRng,
    pub(super) mix: WorkloadMix,
    /// Id of the next application to arrive.
    pub(super) next_id: u64,
}

impl ArrivalLane {
    /// The gap to the next arrival.
    pub(super) fn gap(&mut self) -> manytest_sim::Duration {
        self.process.next_interarrival(&mut self.rng)
    }
}

/// The NoC models a message's latency needs, and the traffic routed this
/// epoch (charged only when link contention is modelled).
pub(super) struct Noc {
    pub(super) model: LinkEnergyModel,
    pub(super) contention: ContentionModel,
    /// Last epoch's link loads, when contention is modelled (all links
    /// idle before the first close).
    pub(super) loads: Option<LinkLoads>,
    pub(super) traffic: TrafficMatrix,
}

impl Noc {
    /// Latency of a `bits`-bit message from `src` to `dst`, inflated by
    /// the route's contention when link loads are modelled.
    pub(super) fn latency(&self, src: Coord, dst: Coord, bits: f64) -> f64 {
        let base = self.model.message_cost(src, dst, bits).latency;
        match &self.loads {
            Some(loads) => base * self.contention.route_factor(loads, src, dst),
            None => base,
        }
    }
}

impl System {
    pub(super) fn handle(&mut self, ev: Ev, now: f64) {
        match ev {
            Ev::Arrival => self.on_arrival(now),
            Ev::TaskReady { app, task, inc } => self.on_task_ready(app, task, inc, now),
            Ev::TaskFinish { app, task, inc } => self.on_task_finish(app, task, inc, now),
            Ev::SessionFinish { core, gen } => self.on_session_finish(core, gen, now),
            Ev::ProbeFinish { core, gen } => self.on_probe_finish(core, gen, now),
        }
    }

    // lint:effect(alloc+panic, reason = "arrival lane materializes the sampled task graph and backlog entry; generator validation panics only on malformed workload configs")
    fn on_arrival(&mut self, now: f64) {
        let graph = self.arrivals.mix.sample(&mut self.arrivals.rng);
        let id = AppId(self.arrivals.next_id);
        self.arrivals.next_id += 1;
        self.report.apps_arrived += 1;
        // lint:allow(event-emission-coverage, reason = "genuine root: arrivals are exogenous workload-process draws")
        let arrived = self.tel.observe(
            now,
            SimEvent::AppArrived {
                app: id.0,
                tasks: graph.task_count() as u32,
            },
        );
        let arrival = SimTime::from_secs_f64(now);
        self.pending.push_back(PendingApp {
            app: Application { id, graph, arrival },
            cause: CauseLink::new(CauseKind::Arrival, arrived),
        });
        let gap = self.arrivals.gap();
        self.queue.schedule(arrival + gap, Ev::Arrival);
    }

    fn on_task_ready(&mut self, app_id: u64, task: TaskId, inc: u64, now: f64) {
        let (coord, op, mut duration) = {
            // Stale events outlive their app (abort) or its placement
            // (restart, migration): drop anything whose instance counter
            // no longer matches.
            let Some(app) = self.running.get_app(app_id) else { return };
            if app.inc != inc {
                return;
            }
            debug_assert!(matches!(app.tasks[task.index()], TaskState::Waiting));
            let coord = app.mapping.coord_of(task);
            let rate = app.op.frequency * WORKLOAD_IPC;
            let duration = app.graph.task(task).instructions as f64 / rate;
            (coord, app.op, duration)
        };
        let core = self.mesh.node_id(coord).index();
        if let Some(mut session) = self.store.session(core) {
            if self.config.intrusive_testing {
                // Ablation mode: the test has priority — the task retries
                // once the session is done. Sessions are advanced lazily;
                // sync this copy to compute the true remaining time.
                session.advance(now - session.started_at());
                let retry = now + session.remaining_seconds().max(1e-9) + 1e-9;
                let ev = Ev::TaskReady { app: app_id, task, inc };
                self.queue.schedule(SimTime::from_secs_f64(retry), ev);
                return;
            }
            // Non-intrusive testing: the workload wins, but restoring the
            // core's architectural state after the SBST routine costs a
            // small fixed overhead — the source of the (sub-1 %)
            // throughput penalty the paper reports.
            self.abort_session(core, now, AbortReason::TaskPreempted);
            duration += self.config.abort_overhead.as_secs_f64();
        }
        debug_assert!(
            !matches!(self.store.mode(core), CoreMode::Busy(_)),
            "core hosts one task at a time"
        );
        self.set_mode(core, now, CoreMode::Busy(op));
        let finish = now + duration;
        let Some(app) = self.running.get_app_mut(app_id) else {
            debug_assert!(false, "app {app_id} was checked running above");
            return;
        };
        app.tasks[task.index()] = TaskState::Running { finish };
        let ev = Ev::TaskFinish { app: app_id, task, inc };
        self.queue.schedule(SimTime::from_secs_f64(finish), ev);
    }

    fn on_task_finish(&mut self, app_id: u64, task: TaskId, inc: u64, now: f64) {
        let coord = match self.running.get_app(app_id) {
            Some(app) if app.inc == inc => app.mapping.coord_of(task),
            _ => return, // stale: the app was torn down or re-placed
        };
        // Release the core first.
        let core = self.mesh.node_id(coord).index();
        self.store.set_owner(core, None);
        self.set_mode(core, now, CoreMode::Off);
        let Some(app) = self.running.get_app_mut(app_id) else {
            debug_assert!(false, "app {app_id} was checked running above");
            return;
        };
        // Record completion and instructions, and hand the task's share of
        // the power reservation back so later admissions (and tests) can
        // use it.
        self.report.instructions_executed += app.graph.task(task).instructions;
        app.tasks[task.index()] = TaskState::Done { at: now };
        app.done_count += 1;
        let complete = app.is_complete();
        if !complete {
            let shrunk = (app.reservation.watts() - app.per_task_watts).max(0.0);
            let resized = self.budget.resize(&mut app.reservation, shrunk);
            debug_assert!(resized.is_ok(), "shrinking a reservation cannot fail");
        }
        let app = &*app;
        // Send output messages: charge NoC traffic + energy.
        for e in app.graph.out_edges(task) {
            let dst = app.mapping.coord_of(e.to);
            if self.config.model_contention {
                self.noc.traffic.charge_route(coord, dst, e.bits);
            }
            let cost = self.noc.model.message_cost(coord, dst, e.bits);
            self.meter.add_energy(PowerCategory::Noc, cost.energy);
        }
        // Wake successors whose inputs are now complete.
        let noc = &self.noc;
        let latency = |p: TaskId, t: TaskId, bits| {
            noc.latency(app.mapping.coord_of(p), app.mapping.coord_of(t), bits)
        };
        for (to, ready) in app.woken_by(task, latency) {
            let ready = ready.max(now);
            #[cfg(test)]
            oracle::note_wake(to, ready);
            let ev = Ev::TaskReady { app: app_id, task: to, inc };
            self.queue.schedule(SimTime::from_secs_f64(ready), ev);
        }
        #[cfg(test)]
        self.assert_wakes_match_reference(app_id, task, now);
        // Application completion.
        if complete {
            let Some(app) = self.running.remove_app(app_id) else {
                debug_assert!(false, "app {app_id} was checked running above");
                return;
            };
            self.budget.release(app.reservation);
            self.report.apps_completed += 1;
            let latency = now - app.arrived_at;
            self.metrics.app_latency.push(latency);
            self.tel.emit_caused(
                now,
                CauseKind::Mapping,
                app.mapped_event,
                SimEvent::AppCompleted {
                    app: app_id,
                    latency,
                },
            );
        }
    }

    fn on_session_finish(&mut self, core: usize, gen: u64, now: f64) {
        if self.store.session_gen(core) != gen {
            return; // stale event from an aborted session
        }
        // `end_session` leaves the generation untouched when no session
        // is live, so a second stale event for the same gen still drops.
        let (session, reservation) = self.store.end_session(core);
        let Some(session) = session else {
            return; // stale event from an aborted session
        };
        debug_assert!(
            reservation.is_some(),
            "active session holds a reservation"
        );
        if let Some(reservation) = reservation {
            self.budget.release(reservation);
        }
        self.scheduler
            .on_session_complete(core, session.routine(), session.level());
        // −1 until the core's first completion.
        let prev_test = self.stress.core(core).last_test_time;
        self.stress.note_test_complete(core, now);
        let routine = self.scheduler.library().routine(session.routine());
        let response = Response::of(self.config.fault_response);
        let retest = response.filter(|_| self.health.is_suspect(core));
        // Id of a FaultDetected emitted by this completion, if any: the
        // suspicion it triggers links back to it (otherwise the suspicion
        // is a false alarm caused by the completion itself).
        let mut detect_id: Option<EventId> = None;
        let symptom = if retest.is_some() {
            // Confirmation retest: draw only over the faults actually
            // present on this core — a fault-free core can never confirm,
            // so false positives are structurally unable to quarantine a
            // healthy core. No false-alarm draw here either: confirmation
            // compares failure signatures, which a spurious pass/fail
            // flip cannot fake twice.
            self.faults
                .confirm(core, routine, session.level(), now, &mut self.rng_faults)
        } else {
            let detected = self.faults.on_test_complete_with(
                core,
                routine,
                session.level(),
                now,
                &mut self.rng_faults,
                |faulty_core, latency| {
                    let cause = self.tel.fault_cause[faulty_core]
                        .map(|id| CauseLink::new(CauseKind::Activation, id));
                    let ev = SimEvent::FaultDetected {
                        core: faulty_core as u32,
                        latency,
                    };
                    detect_id = Some(self.tel.observe_linked(now, cause, ev));
                },
            );
            // Guarded draw: a zero rate (the default) consumes no
            // randomness, keeping historical seeds bit-identical.
            detected
                || (routine.false_positive_rate > 0.0
                    && self.rng_faults.gen_bool(routine.false_positive_rate))
        };
        self.report.tests_completed += 1;
        let interval = if prev_test >= 0.0 {
            self.metrics.test_interval.push(now - prev_test);
            now - prev_test
        } else {
            -1.0 // first completion on this core
        };
        let ledger = self.scheduler.ledger();
        let covered_levels = (0..ledger.level_count())
            .filter(|&l| ledger.tests_at(core, VfLevel(l as u8)) > 0)
            .count() as u8;
        let session_link = self.tel.session_cause[core]
            .take()
            .map(|id| CauseLink::new(CauseKind::Session, id));
        let completed = self.tel.observe_linked(
            now,
            session_link,
            SimEvent::TestCompleted {
                core: core as u32,
                routine: session.routine().0,
                level: session.level().0,
                covered_levels,
                interval,
            },
        );
        if let Some(response) = retest {
            self.report.confirmation_retests += 1;
            let (used, remaining) = self.health.note_retest_complete(core);
            if symptom {
                let cause = CauseLink::new(CauseKind::RetestFailed, completed);
                self.quarantine_core(core, u32::from(used), now, cause, response);
            } else if remaining == 0 {
                // K retests, no reproduction: the platform stops
                // believing the original detection.
                self.health.clear(core);
                self.faults.demote_to_latent(core);
                self.report.cores_cleared += 1;
                self.tel.suspect_cause[core] = None;
                self.tel.emit_caused(
                    now,
                    CauseKind::RetestPassed,
                    completed,
                    SimEvent::CoreCleared {
                        core: core as u32,
                        retests: u32::from(used),
                    },
                );
            }
        } else if response.is_some() && symptom && self.health.is_healthy(core) {
            self.report.cores_suspected += 1;
            // A detection (if the test actually caught a fault) or the
            // completion's own false-positive draw triggered this.
            let suspicion_link = match detect_id {
                Some(d) => CauseLink::new(CauseKind::Detection, d),
                None => CauseLink::new(CauseKind::FalseAlarm, completed),
            };
            let suspected = self.tel.observe_linked(
                now,
                Some(suspicion_link),
                SimEvent::CoreSuspected {
                    core: core as u32,
                    level: session.level().0,
                },
            );
            self.tel.suspect_cause[core] = Some(suspected);
            self.health.mark_suspect(core, session.level(), CONFIRMATION_RETESTS);
        }
        let mode = if self.health.is_withdrawn(core) {
            CoreMode::Off
        } else {
            self.resting_mode(core)
        };
        self.set_mode(core, now, mode);
    }
}

#[cfg(test)]
mod oracle {
    use super::*;

    thread_local! {
        /// The wake-ups the current task completion scheduled: each
        /// successor with its ready-time bits.
        static WAKES: std::cell::RefCell<Vec<(TaskId, u64)>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    pub(super) fn note_wake(task: TaskId, ready: f64) {
        WAKES.with(|w| w.borrow_mut().push((task, ready.to_bits())));
    }

    impl System {
        /// The oracle for the task lane: the wake-up computation as it
        /// was before `RunningApp::ready_time` fused it, a predecessor
        /// scan and then an input-ready fold that finds each edge from
        /// the front of the edge list. In unit-test builds every task
        /// completion checks that it scheduled the same successors, in
        /// the same order, at the same ready-time bits.
        pub(super) fn assert_wakes_match_reference(&self, app_id: u64, task: TaskId, now: f64) {
            let app = self
                .running
                .get_app(app_id)
                .expect("the completing app is running");
            let woken = WAKES.with(|w| std::mem::take(&mut *w.borrow_mut()));
            let reference: Vec<(TaskId, u64)> = app
                .graph
                .out_edges(task)
                .map(|e| e.to)
                .filter(|&to| {
                    matches!(app.tasks[to.index()], TaskState::Waiting)
                        && app.predecessors_done(to)
                })
                .map(|to| {
                    let ready = app.input_ready_time(to, |p, t| {
                        let bits = app
                            .graph
                            .edges()
                            .iter()
                            .find(|e| e.from == p && e.to == t)
                            .map(|e| e.bits)
                            .unwrap_or(0.0);
                        self.noc
                            .latency(app.mapping.coord_of(p), app.mapping.coord_of(t), bits)
                    });
                    (to, ready.max(now).to_bits())
                })
                .collect();
            assert_eq!(woken, reference, "app {app_id} task {task} at t = {now}");
        }
    }
}
